(* The churn-level telemetry pipeline end to end: Engine.apply emits
   the overlay-engine-trace/1 vocabulary into an Obs_stream, the file
   reads back strict-clean, the windowed report's totals match the
   engine's own stats, the live registry histograms agree with the
   trace-derived quantiles bit-for-bit (lossless float round-trip),
   and instrumentation never perturbs solver output. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 0.0))  (* exact equality *)

let waxman_graph ~seed ~n =
  let rng = Rng.create seed in
  (Waxman.generate rng { Waxman.default_params with n }).Topology.graph

let sessions_on ~seed ~graph ~count ~size =
  let rng = Rng.create seed in
  Session.random_batch rng ~topology_size:(Graph.n_vertices graph) ~count ~size
    ~demand:100.0

let fresh_members ~seed graph ~size =
  let rng = Rng.create seed in
  (Session.random rng ~id:0 ~topology_size:(Graph.n_vertices graph) ~size
     ~demand:1.0)
    .Session.members

let ev at event = { Churn.at; event }

let contains text sub =
  let n = String.length text and m = String.length sub in
  let rec scan i = i + m <= n && (String.sub text i m = sub || scan (i + 1)) in
  scan 0

(* one event of every churn kind, so every event-type code crosses the
   wire *)
let event_sequence graph =
  let members = fresh_members ~seed:401 graph ~size:5 in
  [
    ev 1.0 (Churn.Session_join { id = 100; members; demand = 50.0 });
    ev 2.0 (Churn.Demand_change { id = 100; demand = 75.0 });
    ev 3.0 (Churn.Capacity_change { edge = 3; capacity = 77.0 });
    ev 4.0 (Churn.Session_leave { id = 100 });
  ]

(* replay the canonical scenario with [obs], returning the engine and
   its reports; the initial solve over 3 sessions emits the "initial"
   event, the 4 churn events the other codes *)
let replay_with obs =
  let graph = waxman_graph ~seed:70 ~n:30 in
  let sessions = sessions_on ~seed:71 ~graph ~count:3 ~size:5 in
  let config = { Engine.default_config with Engine.obs } in
  let t = Engine.create ~config graph sessions in
  let reports = Engine.replay t (event_sequence graph) in
  (t, reports)

let with_stream_capture f =
  let path = Filename.temp_file "engine_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      (* the registered latency histogram is process-global and has
         accumulated samples from earlier suites; start it clean so the
         live quantiles cover exactly this capture *)
      Obs.Histogram.reset (Obs.Histogram.make "engine.resolve_s");
      let s = Obs_stream.create ~schema:Obs_export.schema_engine path in
      let t, reports =
        Fun.protect
          ~finally:(fun () -> Obs_stream.close s)
          (fun () -> replay_with (Obs_stream.sink s))
      in
      match Obs_export.read_trace path with
      | Error msg -> Alcotest.failf "read_trace failed: %s" msg
      | Ok r -> f t reports r)

(* --- round trip --------------------------------------------------------- *)

let test_roundtrip_clean () =
  with_stream_capture (fun _t reports r ->
      checki "one report per churn event" 4 (List.length reports);
      checki "stream is schema 2" 2 r.Obs_export.r_schema;
      Alcotest.(check string)
        "header carries the engine schema" Obs_export.schema_engine
        r.Obs_export.r_schema_name;
      checkb "capture is not truncated" false r.Obs_export.r_truncated;
      checkb "strict-clean: no validation issues" true
        (r.Obs_export.r_issues = []);
      checki "nothing dropped" 0 r.Obs_export.r_dropped;
      checki "every emission retained" r.Obs_export.r_emitted
        (Array.length r.Obs_export.r_events))

(* the wire code table in lib/engine and the reporting table in
   lib/analysis are maintained by hand on both sides (analysis sits
   below core and cannot see Churn); this pin breaks if either drifts *)
let test_event_code_table () =
  Alcotest.(check (array string))
    "event-kind code table"
    [| "join"; "leave"; "demand"; "capacity"; "initial" |]
    Analysis.engine_event_kinds;
  with_stream_capture (fun _t _reports r ->
      let rep = Analysis.engine_report r.Obs_export.r_events in
      Alcotest.(check (array int))
        "one event of each kind attributed to its code"
        [| 1; 1; 1; 1; 1 |]
        rep.Analysis.g_total.Analysis.w_kinds)

(* [Certify_fail.a] carries the first violation's code, an index into
   [Check.violation_names]; lib/analysis keeps its own copy of that
   table to name the codes, pinned here *)
let test_violation_code_table () =
  Alcotest.(check (array string))
    "violation code table" Check.violation_names
    Analysis.certify_violation_names;
  let gap =
    Check.Duality_gap { primal = 1.0; dual_bound = 2.0; claimed = 0.9; achieved = 0.5 }
  in
  Alcotest.(check string)
    "the code indexes the name" "duality_gap"
    Check.violation_names.(Check.violation_code gap);
  (* a one-rung ladder with almost no room cannot certify: the warm
     run stops short of the duality bound.  The ring keeps the engine
     vocabulary only; the solver's events would overflow it. *)
  let ring = Obs.Trace.create ~capacity:1024 () in
  let rsink = Obs.Trace.sink ring in
  let obs =
    Obs.Sink.make (fun kind ~session ~a ~b ->
        match kind with
        | Obs.Event_start | Obs.Event_end | Obs.Rung_attempt
        | Obs.Cold_fallback | Obs.Certify_fail ->
          Obs.Sink.emit rsink kind ~session ~a ~b
        | _ -> ())
  in
  let graph = waxman_graph ~seed:70 ~n:30 in
  let sessions = sessions_on ~seed:71 ~graph ~count:3 ~size:5 in
  let config =
    { Engine.default_config with Engine.obs; rooms = [| 1e-3 |] }
  in
  let t = Engine.create ~config graph sessions in
  let id = sessions.(0).Session.id in
  let r = Engine.apply t (ev 1.0 (Churn.Demand_change { id; demand = 50.0 })) in
  checkb "the ladder fell back to cold" false r.Engine.warm;
  let events = Obs.Trace.events ring in
  (match
     List.filter (fun (e : Obs.Event.t) -> e.Obs.Event.kind = Obs.Certify_fail) events
   with
  | [ e ] ->
    checki "failed on rung 0" 0 e.Obs.Event.session;
    checkf "first violation is duality_gap"
      (float_of_int (Check.violation_code gap))
      e.Obs.Event.a;
    checkb "at least one violation" true (e.Obs.Event.b >= 1.0)
  | l -> Alcotest.failf "expected one certify_fail, got %d" (List.length l));
  let text = Analysis.render_engine (Analysis.engine_report (Array.of_list events)) in
  checkb "trace engine names the failing check" true
    (contains text "certify failures by first violation: duality_gap=1")

let test_report_matches_engine () =
  with_stream_capture (fun t _reports r ->
      let s = Engine.stats t in
      let rep = Analysis.engine_report r.Obs_export.r_events in
      let total = rep.Analysis.g_total in
      checki "report events = engine resolves" s.Engine.resolves
        rep.Analysis.g_events;
      checki "warm split matches" s.Engine.warm_accepted
        total.Analysis.w_warm;
      checki "cold split matches" s.Engine.cold_solves total.Analysis.w_cold;
      checki "windows partition the events" rep.Analysis.g_events
        (Array.fold_left
           (fun acc (w : Analysis.engine_window) -> acc + w.Analysis.w_events)
           0 rep.Analysis.g_windows);
      checkb "positive event rate" true (rep.Analysis.g_events_per_s > 0.0);
      (* latencies round-trip losslessly (floats render exactly), so the
         trace-derived quantiles equal the live registry histogram's *)
      (match Obs.Registry.find_histogram "engine.resolve_s" with
      | None -> Alcotest.fail "engine.resolve_s not registered"
      | Some h ->
        checkf "trace p50 = live histogram p50"
          (Obs.Histogram.quantile h 0.50)
          total.Analysis.w_p50;
        checkf "trace p99 = live histogram p99"
          (Obs.Histogram.quantile h 0.99)
          total.Analysis.w_p99;
        checkf "trace max = live histogram max"
          (Obs.Histogram.quantile h 1.0)
          total.Analysis.w_max);
      (* rung telemetry is internally consistent *)
      checkb "rung attempts cover warm acceptances" true
        (total.Analysis.w_rungs >= total.Analysis.w_warm))

let test_report_rendering () =
  with_stream_capture (fun _t _reports r ->
      let rep = Analysis.engine_report ~window:0.5 r.Obs_export.r_events in
      let csv = Analysis.engine_csv rep in
      (match String.split_on_char '\n' (String.trim csv) with
      | header :: rows ->
        Alcotest.(check string)
          "csv header"
          "window,start_s,end_s,events,joins,leaves,demand,capacity,initial,\
           warm,cold,rung_attempts,escalations,cold_fallbacks,certify_fails,\
           p50_ms,p90_ms,p99_ms,max_ms"
          header;
        checki "one row per window plus the total row"
          (Array.length rep.Analysis.g_windows + 1)
          (List.length rows)
      | [] -> Alcotest.fail "empty csv");
      let txt = Analysis.render_engine rep in
      checkb "text report mentions the event rate" true
        (String.length txt > 0);
      (* empty capture degrades gracefully *)
      let empty = Analysis.engine_report [||] in
      checki "empty capture has no events" 0 empty.Analysis.g_events;
      checkb "empty capture renders" true
        (String.length (Analysis.render_engine empty) > 0))

(* --- the cardinal rule: telemetry never perturbs output ----------------- *)

let test_instrumented_output_identical () =
  let _, null_reports = replay_with Obs.Sink.null in
  with_stream_capture (fun t streamed_reports _r ->
      List.iter2
        (fun (a : Engine.report) (b : Engine.report) ->
          checkf "objective bit-identical under streaming" a.Engine.objective
            b.Engine.objective;
          checkb "same path taken" true (a.Engine.warm = b.Engine.warm);
          checki "same attempt count" a.Engine.attempts b.Engine.attempts)
        null_reports streamed_reports;
      checkb "final objective positive" true (Engine.objective t > 0.0))

(* --- registry exposition ------------------------------------------------ *)

let test_prometheus_valid () =
  with_stream_capture (fun _t _reports _r ->
      let text = Metrics_export.prometheus () in
      (match Metrics_export.validate text with
      | Ok () -> ()
      | Error e -> Alcotest.failf "generated exposition rejected: %s" e);
      checkb "engine histogram exposed with cumulative buckets" true
        (contains text "engine_resolve_s_bucket{le=\"");
      (* a dump without the +Inf bucket must be rejected *)
      let bad =
        "# TYPE broken histogram\n\
         broken_bucket{le=\"1\"} 1\n\
         broken_sum 1\n\
         broken_count 1\n"
      in
      (match Metrics_export.validate bad with
      | Ok () -> Alcotest.fail "missing +Inf bucket accepted"
      | Error _ -> ());
      (* non-cumulative bucket counts must be rejected *)
      let bad2 =
        "# TYPE b histogram\n\
         b_bucket{le=\"1\"} 5\n\
         b_bucket{le=\"2\"} 3\n\
         b_bucket{le=\"+Inf\"} 5\n\
         b_sum 1\n\
         b_count 5\n"
      in
      match Metrics_export.validate bad2 with
      | Ok () -> Alcotest.fail "non-cumulative buckets accepted"
      | Error _ -> ())

let test_snapshot_quantile_agrees () =
  with_stream_capture (fun _t _reports _r ->
      match Obs.Registry.find_histogram "engine.resolve_s" with
      | None -> Alcotest.fail "engine.resolve_s not registered"
      | Some h ->
        let s = Obs.Histogram.snapshot h in
        List.iter
          (fun p ->
            checkf "snapshot_quantile = live quantile"
              (Obs.Histogram.quantile h p)
              (Obs_export.snapshot_quantile s p))
          [ 0.0; 0.5; 0.9; 0.99; 1.0 ])

let suite =
  [
    Alcotest.test_case "stream round-trips strict-clean" `Quick
      test_roundtrip_clean;
    Alcotest.test_case "event-code table pinned on both sides" `Quick
      test_event_code_table;
    Alcotest.test_case "windowed report matches engine stats" `Quick
      test_report_matches_engine;
    Alcotest.test_case "report rendering (csv + text + empty)" `Quick
      test_report_rendering;
    Alcotest.test_case "streaming leaves output bit-identical" `Quick
      test_instrumented_output_identical;
    Alcotest.test_case "prometheus exposition validates" `Quick
      test_prometheus_valid;
    Alcotest.test_case "snapshot_quantile agrees with live quantile" `Quick
      test_snapshot_quantile_agrees;
    Alcotest.test_case "certify-fail violation codes pinned" `Quick
      test_violation_code_table;
  ]
