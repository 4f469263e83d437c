(* Pure folds over Obs.Event.t arrays.  Nothing here reads solver
   state; truncated traces (ring wraparound) degrade gracefully to
   partial reports instead of raising. *)

let kind_counts events =
  let tbl = Hashtbl.create 16 in
  Array.iter
    (fun (e : Obs.Event.t) ->
      let k = e.Obs.Event.kind in
      Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
    events;
  Hashtbl.fold (fun k n acc -> (k, n) :: acc) tbl []
  |> List.sort (fun (ka, _) (kb, _) ->
         String.compare (Obs.kind_name ka) (Obs.kind_name kb))

(* --- convergence -------------------------------------------------------- *)

type iter_point = {
  iteration : int;
  session : int;
  flow : float;
  time : float;
  dt : float;
}

type marker = { m_time : float; m_value : float }

type convergence = {
  run_name : string option;
  n_sessions : int option;
  parameter : float option;
  iterations : int;
  phases : int;
  points : iter_point array;
  rescales : marker array;
  demand_doubles : marker array;
  session_rates : (int * float) array;
  final_objective : float option;
  run_iterations : float option;
  total_flow : float;
  duration : float;
}

let convergence events =
  let run_name = ref None in
  let n_sessions = ref None in
  let parameter = ref None in
  let iterations = ref 0 in
  let phases = ref 0 in
  let points = ref [] in
  let rescales = ref [] in
  let demand_doubles = ref [] in
  let session_rates = ref [] in
  let final_objective = ref None in
  let run_iterations = ref None in
  let total_flow = ref 0.0 in
  let prev_time = ref None in
  Array.iter
    (fun (e : Obs.Event.t) ->
      match e.Obs.Event.kind with
      | Obs.Run_start ->
        if !run_name = None then begin
          run_name := Some (Obs.Name.to_string e.Obs.Event.session);
          n_sessions := Some (int_of_float e.Obs.Event.a);
          parameter := Some e.Obs.Event.b;
          (* the run's start anchors the first point's inter-event time *)
          if !prev_time = None then prev_time := Some e.Obs.Event.time
        end
      | Obs.Run_end ->
        final_objective := Some e.Obs.Event.b;
        run_iterations := Some e.Obs.Event.a
      | Obs.Iter_start -> incr iterations
      | Obs.Iter_end ->
        let dt =
          match !prev_time with
          | Some t0 -> e.Obs.Event.time -. t0
          | None -> 0.0
        in
        prev_time := Some e.Obs.Event.time;
        total_flow := !total_flow +. e.Obs.Event.b;
        points :=
          {
            iteration = int_of_float e.Obs.Event.a;
            session = e.Obs.Event.session;
            flow = e.Obs.Event.b;
            time = e.Obs.Event.time;
            dt;
          }
          :: !points
      | Obs.Phase_start -> incr phases
      | Obs.Rescale ->
        rescales :=
          { m_time = e.Obs.Event.time; m_value = e.Obs.Event.a } :: !rescales
      | Obs.Demand_double ->
        demand_doubles :=
          { m_time = e.Obs.Event.time; m_value = e.Obs.Event.a }
          :: !demand_doubles
      | Obs.Session_rate ->
        session_rates := (e.Obs.Event.session, e.Obs.Event.a) :: !session_rates
      | _ -> ())
    events;
  let duration =
    if Array.length events = 0 then 0.0
    else
      events.(Array.length events - 1).Obs.Event.time
      -. events.(0).Obs.Event.time
  in
  {
    run_name = !run_name;
    n_sessions = !n_sessions;
    parameter = !parameter;
    iterations = !iterations;
    phases = !phases;
    points = Array.of_list (List.rev !points);
    rescales = Array.of_list (List.rev !rescales);
    demand_doubles = Array.of_list (List.rev !demand_doubles);
    session_rates = Array.of_list (List.rev !session_rates);
    final_objective = !final_objective;
    run_iterations = !run_iterations;
    total_flow = !total_flow;
    duration;
  }

let convergence_csv c =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "kind,iteration,time,dt,session,value\n";
  (* merge points and markers back into time order; both arrays are
     already time-sorted, so a two-cursor merge suffices *)
  let markers =
    Array.append
      (Array.map (fun m -> ("rescale", m)) c.rescales)
      (Array.map (fun m -> ("demand_double", m)) c.demand_doubles)
  in
  Array.sort (fun (_, a) (_, b) -> Float.compare a.m_time b.m_time) markers;
  let np = Array.length c.points and nm = Array.length markers in
  let ip = ref 0 and im = ref 0 in
  let emit_point (p : iter_point) =
    Buffer.add_string buf
      (Printf.sprintf "iter_end,%d,%.9f,%.9f,%d,%.12g\n" p.iteration p.time
         p.dt p.session p.flow)
  in
  let emit_marker (kind, m) =
    Buffer.add_string buf
      (Printf.sprintf "%s,,%.9f,,,%.12g\n" kind m.m_time m.m_value)
  in
  while !ip < np || !im < nm do
    if
      !im >= nm
      || (!ip < np && c.points.(!ip).time <= (snd markers.(!im)).m_time)
    then begin
      emit_point c.points.(!ip);
      incr ip
    end
    else begin
      emit_marker markers.(!im);
      incr im
    end
  done;
  Buffer.contents buf

let render_convergence ?(buckets = 20) c =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "run: %s  sessions: %s  parameter: %s\n"
    (Option.value ~default:"?" c.run_name)
    (match c.n_sessions with Some n -> string_of_int n | None -> "?")
    (match c.parameter with Some p -> Printf.sprintf "%g" p | None -> "?");
  add "iterations: %d  phases: %d  rescales: %d  demand doublings: %d\n"
    c.iterations c.phases (Array.length c.rescales)
    (Array.length c.demand_doubles);
  add "routed flow: %.6g over %d accepted steps  duration: %.3fs\n"
    c.total_flow (Array.length c.points) c.duration;
  (match c.final_objective with
  | Some obj -> add "objective: %.2f\n" obj
  | None -> add "objective: ? (no run_end in trace)\n");
  if Array.length c.session_rates > 0 then begin
    add "final rates:";
    Array.iter
      (fun (slot, rate) -> add " s%d=%.2f" slot rate)
      c.session_rates;
    add "\n"
  end;
  let np = Array.length c.points in
  if np > 0 && buckets > 0 then begin
    let nb = min buckets np in
    let t =
      Tableau.create ~title:"convergence trajectory (bucketed)"
        [ "steps"; "mean flow"; "min"; "max"; "mean dt (us)"; "cum flow %" ]
    in
    let cum = ref 0.0 in
    for bkt = 0 to nb - 1 do
      let lo = bkt * np / nb and hi = ((bkt + 1) * np / nb) - 1 in
      let count = hi - lo + 1 in
      let sum = ref 0.0
      and mn = ref infinity
      and mx = ref neg_infinity
      and dts = ref 0.0 in
      for i = lo to hi do
        let p = c.points.(i) in
        sum := !sum +. p.flow;
        if p.flow < !mn then mn := p.flow;
        if p.flow > !mx then mx := p.flow;
        dts := !dts +. p.dt
      done;
      cum := !cum +. !sum;
      Tableau.add_row t
        [
          Printf.sprintf "%d-%d" (lo + 1) (hi + 1);
          Printf.sprintf "%.3f" (!sum /. float_of_int count);
          Printf.sprintf "%.3f" !mn;
          Printf.sprintf "%.3f" !mx;
          Printf.sprintf "%.1f" (1e6 *. !dts /. float_of_int count);
          Printf.sprintf "%.1f"
            (if c.total_flow = 0.0 then 0.0 else 100.0 *. !cum /. c.total_flow);
        ]
    done;
    Buffer.add_string buf (Tableau.render t)
  end;
  Buffer.contents buf

(* --- span profile ------------------------------------------------------- *)

type span_stat = {
  span : string;
  count : int;
  total_s : float;
  self_s : float;
  max_depth : int;
}

let span_profile events =
  (* per-name accumulators keyed by interned id *)
  let stats : (int, span_stat ref) Hashtbl.t = Hashtbl.create 8 in
  let get id =
    match Hashtbl.find_opt stats id with
    | Some r -> r
    | None ->
      let r =
        ref
          {
            span = Obs.Name.to_string id;
            count = 0;
            total_s = 0.0;
            self_s = 0.0;
            max_depth = 0;
          }
      in
      Hashtbl.add stats id r;
      r
  in
  (* stack of open spans: (name id, accumulated direct-child time).
     Ring truncation can orphan a close (its open was overwritten); an
     orphan close still counts into the totals but cannot credit a
     parent, which matches the "tolerate truncated traces" contract. *)
  let stack = ref [] in
  Array.iter
    (fun (e : Obs.Event.t) ->
      match e.Obs.Event.kind with
      | Obs.Span_open ->
        let r = get e.Obs.Event.session in
        let depth = int_of_float e.Obs.Event.b in
        if depth > !r.max_depth then r := { !r with max_depth = depth };
        stack := (e.Obs.Event.session, ref 0.0) :: !stack
      | Obs.Span_close ->
        let duration = e.Obs.Event.a in
        let child_time =
          match !stack with
          | (id, child_acc) :: rest when id = e.Obs.Event.session ->
            stack := rest;
            !child_acc
          | _ -> 0.0
        in
        (match !stack with
        | (_, parent_acc) :: _ -> parent_acc := !parent_acc +. duration
        | [] -> ());
        let r = get e.Obs.Event.session in
        r :=
          {
            !r with
            count = !r.count + 1;
            total_s = !r.total_s +. duration;
            self_s = !r.self_s +. (duration -. child_time);
          }
      | _ -> ())
    events;
  Hashtbl.fold (fun _ r acc -> !r :: acc) stats []
  |> List.filter (fun s -> s.count > 0 || s.max_depth > 0)
  |> List.sort (fun a b -> Float.compare b.total_s a.total_s)

let render_spans stats =
  if stats = [] then "no span events in trace\n"
  else begin
    let t =
      Tableau.create ~title:"span profile"
        [ "span"; "count"; "total (s)"; "self (s)"; "mean (ms)"; "max depth" ]
    in
    List.iter
      (fun s ->
        Tableau.add_row t
          [
            s.span;
            string_of_int s.count;
            Printf.sprintf "%.6f" s.total_s;
            Printf.sprintf "%.6f" s.self_s;
            Printf.sprintf "%.3f"
              (if s.count = 0 then 0.0
               else 1e3 *. s.total_s /. float_of_int s.count);
            string_of_int s.max_depth;
          ])
      stats;
    Tableau.render t
  end

(* --- MST-engine efficiency ---------------------------------------------- *)

type mst_session = {
  mst_session : int;
  recomputes : int;
  lazy_skips : int;
  eager_runs : int;
  lazy_runs : int;
  weight_walks : int;
}

type mst_report = {
  per_session : mst_session array;
  total_recomputes : int;
  total_lazy_skips : int;
  total_weight_walks : int;
}

let mst_efficiency events =
  let tbl : (int, mst_session ref) Hashtbl.t = Hashtbl.create 8 in
  let get sid =
    match Hashtbl.find_opt tbl sid with
    | Some r -> r
    | None ->
      let r =
        ref
          {
            mst_session = sid;
            recomputes = 0;
            lazy_skips = 0;
            eager_runs = 0;
            lazy_runs = 0;
            weight_walks = 0;
          }
      in
      Hashtbl.add tbl sid r;
      r
  in
  Array.iter
    (fun (e : Obs.Event.t) ->
      match e.Obs.Event.kind with
      | Obs.Mst_recompute ->
        let r = get e.Obs.Event.session in
        let lazy_path = e.Obs.Event.b = 1.0 in
        r :=
          {
            !r with
            recomputes = !r.recomputes + 1;
            eager_runs = (!r.eager_runs + if lazy_path then 0 else 1);
            lazy_runs = (!r.lazy_runs + if lazy_path then 1 else 0);
            weight_walks = !r.weight_walks + int_of_float e.Obs.Event.a;
          }
      | Obs.Mst_lazy_skip ->
        let r = get e.Obs.Event.session in
        r := { !r with lazy_skips = !r.lazy_skips + 1 }
      | _ -> ())
    events;
  let per_session =
    Hashtbl.fold (fun _ r acc -> !r :: acc) tbl []
    |> List.sort (fun a b -> compare a.mst_session b.mst_session)
    |> Array.of_list
  in
  {
    per_session;
    total_recomputes =
      Array.fold_left (fun acc s -> acc + s.recomputes) 0 per_session;
    total_lazy_skips =
      Array.fold_left (fun acc s -> acc + s.lazy_skips) 0 per_session;
    total_weight_walks =
      Array.fold_left (fun acc s -> acc + s.weight_walks) 0 per_session;
  }

let render_mst r =
  if Array.length r.per_session = 0 then "no MST events in trace\n"
  else begin
    let t =
      Tableau.create ~title:"MST-engine efficiency"
        [
          "session"; "recomputes"; "lazy skips"; "eager Prim"; "lazy Prim";
          "weight re-walks"; "skip %";
        ]
    in
    Array.iter
      (fun s ->
        let calls = s.recomputes + s.lazy_skips in
        Tableau.add_row t
          [
            string_of_int s.mst_session;
            string_of_int s.recomputes;
            string_of_int s.lazy_skips;
            string_of_int s.eager_runs;
            string_of_int s.lazy_runs;
            string_of_int s.weight_walks;
            Printf.sprintf "%.1f"
              (if calls = 0 then 0.0
               else 100.0 *. float_of_int s.lazy_skips /. float_of_int calls);
          ])
      r.per_session;
    let calls = r.total_recomputes + r.total_lazy_skips in
    Tableau.add_row t
      [
        "total";
        string_of_int r.total_recomputes;
        string_of_int r.total_lazy_skips;
        "";
        "";
        string_of_int r.total_weight_walks;
        Printf.sprintf "%.1f"
          (if calls = 0 then 0.0
           else 100.0 *. float_of_int r.total_lazy_skips /. float_of_int calls);
      ];
    Tableau.render t
  end

(* --- structural diff ---------------------------------------------------- *)

type kind_delta = { k_kind : Obs.kind; count_a : int; count_b : int }

type drift = {
  metric : string;
  value_a : float;
  value_b : float;
  within_tol : bool;
}

type diff_report = {
  kind_deltas : kind_delta list;
  drifts : drift list;
  counts_equal : bool;
  equal : bool;
}

let diff ?(iter_tol = 0) ?(obj_tol = 1e-9) a b =
  let counts_a = kind_counts a and counts_b = kind_counts b in
  let find k counts =
    match List.find_opt (fun (k', _) -> k' = k) counts with
    | Some (_, n) -> n
    | None -> 0
  in
  let all_names =
    List.sort_uniq String.compare
      (List.map (fun (k, _) -> Obs.kind_name k) (counts_a @ counts_b))
  in
  let kind_deltas =
    List.filter_map
      (fun name ->
        match Obs.kind_of_name name with
        | Some k ->
          Some { k_kind = k; count_a = find k counts_a; count_b = find k counts_b }
        | None -> None)
      all_names
  in
  let counts_equal =
    List.for_all (fun d -> d.count_a = d.count_b) kind_deltas
  in
  let ca = convergence a and cb = convergence b in
  let count_drift metric va vb =
    {
      metric;
      value_a = float_of_int va;
      value_b = float_of_int vb;
      within_tol = abs (va - vb) <= iter_tol;
    }
  in
  let rel_drift metric va vb =
    let denom = Float.max (Float.abs va) (Float.abs vb) in
    let rel = if denom = 0.0 then 0.0 else Float.abs (va -. vb) /. denom in
    { metric; value_a = va; value_b = vb; within_tol = rel <= obj_tol }
  in
  let opt v = Option.value ~default:Float.nan v in
  let obj_drift =
    match (ca.final_objective, cb.final_objective) with
    | Some oa, Some ob -> rel_drift "objective" oa ob
    | oa, ob ->
      (* one side lost its run_end (truncation): comparable only when
         both are missing *)
      {
        metric = "objective";
        value_a = opt oa;
        value_b = opt ob;
        within_tol = oa = None && ob = None;
      }
  in
  let drifts =
    [
      count_drift "iterations" ca.iterations cb.iterations;
      count_drift "phases" ca.phases cb.phases;
      count_drift "rescales"
        (Array.length ca.rescales)
        (Array.length cb.rescales);
      count_drift "demand_doubles"
        (Array.length ca.demand_doubles)
        (Array.length cb.demand_doubles);
      obj_drift;
      rel_drift "total_flow" ca.total_flow cb.total_flow;
    ]
  in
  {
    kind_deltas;
    drifts;
    counts_equal;
    equal = counts_equal && List.for_all (fun d -> d.within_tol) drifts;
  }

let render_diff r =
  let buf = Buffer.create 1024 in
  let t =
    Tableau.create ~title:"event counts" [ "kind"; "trace A"; "trace B"; "delta" ]
  in
  List.iter
    (fun d ->
      Tableau.add_row t
        [
          Obs.kind_name d.k_kind;
          string_of_int d.count_a;
          string_of_int d.count_b;
          (let delta = d.count_b - d.count_a in
           if delta = 0 then "" else Printf.sprintf "%+d" delta);
        ])
    r.kind_deltas;
  Buffer.add_string buf (Tableau.render t);
  let t =
    Tableau.create ~title:"drift" [ "metric"; "trace A"; "trace B"; "within tol" ]
  in
  List.iter
    (fun d ->
      Tableau.add_row t
        [
          d.metric;
          Printf.sprintf "%.12g" d.value_a;
          Printf.sprintf "%.12g" d.value_b;
          (if d.within_tol then "yes" else "NO");
        ])
    r.drifts;
  Buffer.add_string buf (Tableau.render t);
  Buffer.add_string buf
    (if r.equal then "traces are structurally equal\n"
     else "traces DIFFER structurally\n");
  Buffer.contents buf

(* --- engine windowed report --------------------------------------------- *)

(* Churn event-type wire codes, as carried in [Event_start.a].  This is
   a mirror of the table in lib/engine/engine.ml: this library sits
   below [core] in the dependency graph and cannot see [Churn], so the
   codes are duplicated here and pinned against the engine's emissions
   by test_engine_trace. *)
let engine_event_kinds = [| "join"; "leave"; "demand"; "capacity"; "initial" |]

(* Certificate-violation codes, as carried in [Certify_fail.a]: a mirror
   of [Check.violation_names], which this library cannot see either;
   pinned by test_engine_trace. *)
let certify_violation_names =
  [|
    "negative_rate";
    "wrong_session";
    "not_spanning";
    "route_endpoints";
    "broken_route";
    "usage_mismatch";
    "overload";
    "weak_duality";
    "duality_gap";
    "scaling_violation";
  |]

type engine_window = {
  w_start : float;
  w_end : float;
  w_events : int;
  w_kinds : int array;
  w_warm : int;
  w_cold : int;
  w_rungs : int;
  w_escalations : int;
  w_cold_fallbacks : int;
  w_certify_fails : int;
  w_certify_codes : int array;
  w_p50 : float;
  w_p90 : float;
  w_p99 : float;
  w_max : float;
}

type engine_report = {
  g_window_s : float;
  g_t0 : float;
  g_duration : float;
  g_events : int;
  g_events_per_s : float;
  g_joins_per_s : float;
  g_windows : engine_window array;
  g_total : engine_window;
}

(* mutable accumulator per window; latencies go into a mergeable
   histogram so the total row is literally the merge of the windows *)
type engine_acc = {
  mutable c_events : int;
  c_kinds : int array;
  mutable c_warm : int;
  mutable c_cold : int;
  mutable c_rungs : int;
  mutable c_escalations : int;
  mutable c_cold_fallbacks : int;
  mutable c_certify_fails : int;
  c_codes : int array;
  c_hist : Obs.Histogram.t;
}

let acc_create tag =
  {
    c_events = 0;
    c_kinds = Array.make (Array.length engine_event_kinds + 1) 0;
    c_warm = 0;
    c_cold = 0;
    c_rungs = 0;
    c_escalations = 0;
    c_cold_fallbacks = 0;
    c_certify_fails = 0;
    c_codes = Array.make (Array.length certify_violation_names + 1) 0;
    c_hist = Obs.Histogram.create tag;
  }

let acc_finish ~w_start ~w_end a =
  {
    w_start;
    w_end;
    w_events = a.c_events;
    w_kinds = Array.sub a.c_kinds 0 (Array.length engine_event_kinds);
    w_warm = a.c_warm;
    w_cold = a.c_cold;
    w_rungs = a.c_rungs;
    w_escalations = a.c_escalations;
    w_cold_fallbacks = a.c_cold_fallbacks;
    w_certify_fails = a.c_certify_fails;
    w_certify_codes = Array.copy a.c_codes;
    w_p50 = Obs.Histogram.quantile a.c_hist 0.50;
    w_p90 = Obs.Histogram.quantile a.c_hist 0.90;
    w_p99 = Obs.Histogram.quantile a.c_hist 0.99;
    w_max = Obs.Histogram.quantile a.c_hist 1.0;
  }

let is_engine_kind (k : Obs.kind) =
  match k with
  | Obs.Event_start | Obs.Event_end | Obs.Rung_attempt | Obs.Cold_fallback
  | Obs.Certify_fail ->
    true
  | _ -> false

let engine_report ?window events =
  (* pass 1: the capture's engine-event time range.  Solver events
     interleave in the same stream; windows are anchored on the engine
     vocabulary only so a trace that leads with solver noise does not
     skew the axis. *)
  let t0 = ref infinity and t1 = ref neg_infinity in
  Array.iter
    (fun (e : Obs.Event.t) ->
      if is_engine_kind e.Obs.Event.kind then begin
        if e.Obs.Event.time < !t0 then t0 := e.Obs.Event.time;
        if e.Obs.Event.time > !t1 then t1 := e.Obs.Event.time
      end)
    events;
  if !t0 > !t1 then
    {
      g_window_s = 0.0;
      g_t0 = 0.0;
      g_duration = 0.0;
      g_events = 0;
      g_events_per_s = 0.0;
      g_joins_per_s = 0.0;
      g_windows = [||];
      g_total = acc_finish ~w_start:0.0 ~w_end:0.0 (acc_create "engine.total");
    }
  else begin
    let duration = !t1 -. !t0 in
    let window_s =
      match window with
      | Some w when w > 0.0 -> w
      | Some _ | None ->
        (* default: ~10 windows over the capture, floored so a burst
           of events at one instant still forms a single window *)
        if duration <= 0.0 then 1.0 else duration /. 10.0
    in
    let nw =
      if duration <= 0.0 then 1
      else 1 + int_of_float (duration /. window_s)
    in
    let accs =
      Array.init nw (fun i -> acc_create (Printf.sprintf "engine.w%d" i))
    in
    let total = acc_create "engine.total" in
    let window_of time =
      let i = int_of_float ((time -. !t0) /. window_s) in
      if i < 0 then 0 else if i >= nw then nw - 1 else i
    in
    (* the engine is serial per capture: an event_end's latency is
       attributed to the kind of the last unmatched event_start *)
    let pending_code = ref (-1) in
    let unknown = Array.length engine_event_kinds in
    Array.iter
      (fun (e : Obs.Event.t) ->
        if is_engine_kind e.Obs.Event.kind then begin
          let a = accs.(window_of e.Obs.Event.time) in
          match e.Obs.Event.kind with
          | Obs.Event_start ->
            let code = int_of_float e.Obs.Event.a in
            pending_code :=
              (if code >= 0 && code < unknown then code else unknown)
          | Obs.Event_end ->
            let code = if !pending_code >= 0 then !pending_code else unknown in
            pending_code := -1;
            List.iter
              (fun (x : engine_acc) ->
                x.c_events <- x.c_events + 1;
                x.c_kinds.(code) <- x.c_kinds.(code) + 1;
                if e.Obs.Event.b >= 0.5 then x.c_warm <- x.c_warm + 1
                else x.c_cold <- x.c_cold + 1;
                Obs.Histogram.record x.c_hist e.Obs.Event.a)
              [ a; total ]
          | Obs.Rung_attempt ->
            List.iter
              (fun (x : engine_acc) ->
                x.c_rungs <- x.c_rungs + 1;
                if e.Obs.Event.session >= 1 then
                  x.c_escalations <- x.c_escalations + 1)
              [ a; total ]
          | Obs.Cold_fallback ->
            List.iter
              (fun (x : engine_acc) ->
                x.c_cold_fallbacks <- x.c_cold_fallbacks + 1)
              [ a; total ]
          | Obs.Certify_fail ->
            let code = int_of_float e.Obs.Event.a in
            let unknown = Array.length certify_violation_names in
            let code = if code >= 0 && code < unknown then code else unknown in
            List.iter
              (fun (x : engine_acc) ->
                x.c_certify_fails <- x.c_certify_fails + 1;
                x.c_codes.(code) <- x.c_codes.(code) + 1)
              [ a; total ]
          | _ -> ()
        end)
      events;
    (* cross-check the mergeability claim in the one place it matters:
       the total's histogram must equal the merge of the windows *)
    let merged = Obs.Histogram.create "engine.merged" in
    Array.iter (fun a -> Obs.Histogram.merge ~into:merged a.c_hist) accs;
    assert (Obs.Histogram.count merged = Obs.Histogram.count total.c_hist);
    let span = if duration <= 0.0 then window_s else duration in
    let windows =
      Array.mapi
        (fun i a ->
          let w_start = float_of_int i *. window_s in
          let w_end = Float.min (w_start +. window_s) span in
          acc_finish ~w_start ~w_end a)
        accs
    in
    let joins = total.c_kinds.(0) in
    {
      g_window_s = window_s;
      g_t0 = !t0;
      g_duration = duration;
      g_events = total.c_events;
      g_events_per_s =
        (if duration > 0.0 then float_of_int total.c_events /. duration
         else 0.0);
      g_joins_per_s =
        (if duration > 0.0 then float_of_int joins /. duration else 0.0);
      g_windows = windows;
      g_total = acc_finish ~w_start:0.0 ~w_end:span total;
    }
  end

let engine_csv r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "window,start_s,end_s,events,joins,leaves,demand,capacity,initial,warm,\
     cold,rung_attempts,escalations,cold_fallbacks,certify_fails,p50_ms,\
     p90_ms,p99_ms,max_ms\n";
  let row label (w : engine_window) =
    Buffer.add_string buf
      (Printf.sprintf
         "%s,%.6f,%.6f,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.6f,%.6f,%.6f,%.6f\n"
         label w.w_start w.w_end w.w_events w.w_kinds.(0) w.w_kinds.(1)
         w.w_kinds.(2) w.w_kinds.(3) w.w_kinds.(4) w.w_warm w.w_cold w.w_rungs
         w.w_escalations w.w_cold_fallbacks w.w_certify_fails
         (1e3 *. w.w_p50) (1e3 *. w.w_p90) (1e3 *. w.w_p99) (1e3 *. w.w_max))
  in
  Array.iteri (fun i w -> row (string_of_int i) w) r.g_windows;
  row "total" r.g_total;
  Buffer.contents buf

let render_engine r =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  if r.g_events = 0 then begin
    add "no engine events in trace (not an overlay-engine-trace capture?)\n";
    Buffer.contents buf
  end
  else begin
    add "events: %d over %.3fs  (%.1f events/s, %.1f joins/s)\n" r.g_events
      r.g_duration r.g_events_per_s r.g_joins_per_s;
    let tw = r.g_total in
    add "kinds: %s\n"
      (String.concat "  "
         (Array.to_list
            (Array.mapi
               (fun i k -> Printf.sprintf "%s=%d" k tw.w_kinds.(i))
               engine_event_kinds)));
    add
      "warm: %d  cold: %d  rung attempts: %d (escalations: %d)  cold \
       fallbacks: %d  certify failures: %d\n"
      tw.w_warm tw.w_cold tw.w_rungs tw.w_escalations tw.w_cold_fallbacks
      tw.w_certify_fails;
    if tw.w_certify_fails > 0 then begin
      let parts = ref [] in
      Array.iteri
        (fun i n ->
          if n > 0 then
            let name =
              if i < Array.length certify_violation_names then
                certify_violation_names.(i)
              else "unknown"
            in
            parts := Printf.sprintf "%s=%d" name n :: !parts)
        tw.w_certify_codes;
      add "certify failures by first violation: %s\n"
        (String.concat "  " (List.rev !parts))
    end;
    add
      "re-solve latency: p50=%.3fms  p90=%.3fms  p99=%.3fms  max=%.3fms  \
       (quantiles within 2.2%% relative error)\n"
      (1e3 *. tw.w_p50) (1e3 *. tw.w_p90) (1e3 *. tw.w_p99) (1e3 *. tw.w_max);
    let t =
      Tableau.create
        ~title:(Printf.sprintf "windows (%.3fs each)" r.g_window_s)
        [
          "t (s)"; "events"; "joins"; "warm"; "cold"; "esc"; "p50 ms";
          "p90 ms"; "p99 ms"; "max ms";
        ]
    in
    Array.iter
      (fun (w : engine_window) ->
        Tableau.add_row t
          [
            Printf.sprintf "%.2f-%.2f" w.w_start w.w_end;
            string_of_int w.w_events;
            string_of_int w.w_kinds.(0);
            string_of_int w.w_warm;
            string_of_int w.w_cold;
            string_of_int w.w_escalations;
            Printf.sprintf "%.3f" (1e3 *. w.w_p50);
            Printf.sprintf "%.3f" (1e3 *. w.w_p90);
            Printf.sprintf "%.3f" (1e3 *. w.w_p99);
            Printf.sprintf "%.3f" (1e3 *. w.w_max);
          ])
      r.g_windows;
    Buffer.add_string buf (Tableau.render t);
    Buffer.contents buf
  end
