(* The repo benchmark: membership churn through the daemon, engine and
   solver layers, and a batch of cold solves (README.md in this
   directory has the design).

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   With --trace 0 the last stdout line is a JSON object carrying every
   end-to-end metric; with --trace 1 it carries the per-layer metrics
   of a separate traced run.  Any correctness-gate or determinism
   failure makes the run exit 1 (after printing its result). *)

(* The clock of every reported time (latencies, set-up), of the run
   budget and of reply deadlines: wall-clock, what a user of the daemon
   or of the solvers waits, and what a parallel speed-up of the [Par]
   pool shortens.  Time the host hands this vCPU to other tenants
   (steal) lands in it too; the per-event minimum over passes filters
   that out.  Each pass line also prints the process's CPU time as a
   diagnostic: a gap between the two is time the host took away (or,
   on a pooled pass, time the pool overlapped). *)
let now = Unix.gettimeofday

(* ---- arguments ---------------------------------------------------------- *)

let workloads = [ "membership-churn"; "batch-solve" ]

let args =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, " workload seed");
      ("--seconds", Arg.Set_int seconds, " measurement time per run");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: traced per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("unknown --workload " ^ !workload);
    exit 2
  end;
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "--seconds must be >= 1 and --trace 0 or 1";
    exit 2
  end;
  (!workload, !seed, float_of_int !seconds, !trace = 1)

let workload, seed, seconds, traced_run = args

(* Every run repeats its trace on fresh state at least this many times
   and keeps each event's minimum latency, and the minimum set-up:
   interference from the host only ever adds time.  (The traced run
   alternates untraced and traced passes within the same count.) *)
let min_passes = 8

(* Passes stop once the run has measured this long, whatever the
   budget says; keeps the worst case well inside the time limit. *)
let max_measure_s = 90.0

(* Tolerance on the share of a traced replay's wall-clock that no
   layer span covers (the benchmark's own loop bookkeeping). *)
let unattributed_tol = 0.05

(* ---- correctness gates -------------------------------------------------- *)

let failures = ref []

let gate ok fmt =
  Printf.ksprintf (fun msg -> if not ok then failures := msg :: !failures) fmt

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* ---- registry counters -------------------------------------------------- *)

(* The solver-side counts each event or solve is charged with.  They are
   deterministic, so they must repeat exactly across passes and runs. *)
let counter_names =
  [
    "maxflow.iterations";
    "mcf.phases";
    "overlay.mst_ops";
    "graph.prim_runs";
    "graph.dijkstra_runs";
    "routing.snapshots";
  ]

let counters () =
  List.map
    (fun n ->
      match Obs.Registry.find_counter n with
      | Some c -> Obs.Counter.value c
      | None -> 0)
    counter_names

let certify_hist_sum () =
  match Obs.Registry.find_histogram "engine.certify_s" with
  | Some h -> Obs.Histogram.sum h
  | None -> 0.0

(* ---- small statistics --------------------------------------------------- *)

let pct a p = if Array.length a = 0 then 0.0 else Stats.percentile a p
let median_l l = pct (Array.of_list l) 50.0
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ---- one pass ----------------------------------------------------------- *)

type pass = {
  traced : bool;
  jobs : int;           (* Par jobs of the pass *)
  setup_s : float;
  lat : float array;    (* per-event latency, seconds *)
  wall_s : float;       (* replay wall-clock *)
  cpu_s : float;        (* replay CPU time, all domains *)
  attempted : int;
  failed : int;         (* events without a certified solve *)
  objectives : float array;
  finals : float array; (* final objective per churn instance *)
  fingerprint : string; (* deterministic counts of the pass *)
  layer : (string * float) list;  (* per-layer metrics of the pass *)
}

let fingerprint ~events ~extra deltas objectives =
  let b = Buffer.create 256 in
  Printf.bprintf b "events=%d%s" events (if extra = "" then "" else " " ^ extra);
  List.iter2 (fun n d -> Printf.bprintf b " %s=%d" n d) counter_names deltas;
  Printf.bprintf b " objectives=%s"
    (Digest.to_hex
       (Digest.string
          (String.concat ","
             (Array.to_list
                (Array.map (fun o -> Int64.to_string (Int64.bits_of_float o)) objectives)))));
  Buffer.contents b

(* ---- spans (traced run) ------------------------------------------------- *)

(* The traced passes record [Obs.Span]s, taken by the benchmark around
   its own calls into each layer, into an [Obs.Trace] ring of their own;
   the untraced passes hand [Obs.Sink.null] and skip even the clock
   reads. *)
let span sink id f = if Obs.Sink.enabled sink then Obs.Span.with_ sink id f else f ()

let sp_encode = Obs.Span.make "wire.encode"
let sp_send = Obs.Span.make "client.send"
let sp_poll = Obs.Span.make "daemon.poll"
let sp_recv = Obs.Span.make "client.recv"
let sp_decode = Obs.Span.make "wire.decode"
let sp_reencode = Obs.Span.make "bench.reencode"
let sp_overlay = Obs.Span.make "overlay.create"
let sp_maxflow = Obs.Span.make "maxflow.solve"
let sp_mcf = Obs.Span.make "mcf.solve"
let sp_certify = Obs.Span.make "check.certify"
let sp_engine_create = Obs.Span.make "engine.create"
let sp_daemon_create = Obs.Span.make "daemon.create"
let sp_handshake = Obs.Span.make "handshake"
let sp_replay = Obs.Span.make "replay"

(* The spans that cover a replay's wall-clock, one per layer boundary
   the benchmark calls across.  They never nest in one another. *)
let leaf_spans =
  List.map Obs.Span.name
    [
      sp_encode; sp_send; sp_poll; sp_recv; sp_decode; sp_reencode; sp_overlay; sp_maxflow;
      sp_mcf; sp_certify;
    ]

(* What one traced pass recorded: per span name, the total duration and
   the count of its spans; and the share of the [replay] spans'
   wall-clock that no leaf span inside them covers. *)
type span_summary = { by_name : (string, float * int) Hashtbl.t; unattributed : float }

let summarise ring =
  let by_name = Hashtbl.create 16 in
  let replay = Obs.Span.name sp_replay in
  let inside = ref false and replay_s = ref 0.0 and covered = ref 0.0 in
  Obs.Trace.iter ring (fun (e : Obs.Event.t) ->
      match e.kind with
      | Obs.Span_open -> if Obs.Name.to_string e.session = replay then inside := true
      | Obs.Span_close ->
        let name = Obs.Name.to_string e.session in
        let tot, n = Option.value (Hashtbl.find_opt by_name name) ~default:(0.0, 0) in
        Hashtbl.replace by_name name (tot +. e.a, n + 1);
        if name = replay then begin
          inside := false;
          replay_s := !replay_s +. e.a
        end
        else if !inside && List.mem name leaf_spans then covered := !covered +. e.a
      | _ -> ());
  let unattributed = if !replay_s > 0.0 then (!replay_s -. !covered) /. !replay_s else 0.0 in
  { by_name; unattributed }

let span_stat sm id = Option.value (Hashtbl.find_opt sm.by_name (Obs.Span.name id)) ~default:(0.0, 0)
let span_total sm id = fst (span_stat sm id)

let span_mean sm id =
  let tot, n = span_stat sm id in
  if n = 0 then 0.0 else tot /. float_of_int n

(* ---- membership churn over the daemon ----------------------------------- *)

let out_dir = "perfbench/_out"
let sock_path = Filename.concat out_dir (Printf.sprintf "d%d.sock" (Unix.getpid ()))

type kind_tag = Join | Leave | Demand | Capacity

let kind_of (te : Churn.timed) =
  match te.Churn.event with
  | Churn.Session_join _ -> Join
  | Churn.Session_leave _ -> Leave
  | Churn.Demand_change _ -> Demand
  | Churn.Capacity_change _ -> Capacity

type ev = {
  mutable send_at : float;   (* before encode *)
  mutable recv_at : float;
  mutable replied : bool;
  mutable certified : bool;
  mutable warm : bool;
  mutable attempts : int;
  mutable objective : float;
  mutable solve_s : float;
  mutable total_s : float;
  mutable bytes : int;
}

let fresh_ev () =
  {
    send_at = 0.0; recv_at = 0.0; replied = false; certified = false; warm = false; attempts = 0;
    objective = 0.0; solve_s = 0.0; total_s = 0.0; bytes = 0;
  }

type conn = {
  sink : Obs.Sink.t;
  daemon : Daemon.t;
  client : Wire_client.t;
  mutable buf : Bytes.t;
  scratch : Bytes.t;
}

let send c frame =
  let len = Wire.encoded_length frame in
  if Bytes.length c.buf < len then c.buf <- Bytes.create (2 * len);
  ignore (span c.sink sp_encode (fun () -> Wire.encode_into frame c.buf ~pos:0));
  span c.sink sp_send (fun () -> Wire_client.send_bytes c.client c.buf ~pos:0 ~len);
  len

(* Traced run only: time [Wire.decode] on a re-encoded copy of a reply
   (the client decoded the original inside [try_recv]). *)
let time_decode c frame =
  if Obs.Sink.enabled c.sink then begin
    let len = span c.sink sp_reencode (fun () -> Wire.encode_into frame c.scratch ~pos:0) in
    match span c.sink sp_decode (fun () -> Wire.decode c.scratch ~pos:0 ~len) with
    | Wire.Frame (f, _) -> gate (Wire.frame_equal f frame) "reply re-decodes to itself"
    | Wire.Need _ | Wire.Corrupt _ -> gate false "reply re-decode failed"
  end

(* Record a reply against the oldest outstanding event. *)
let take_reply c (evs : ev array) ~next_reply frame =
  let i = !next_reply in
  if i >= Array.length evs then gate false "reply with no outstanding event"
  else begin
    let e = evs.(i) in
    e.recv_at <- now ();
    incr next_reply;
    time_decode c frame;
    e.bytes <- e.bytes + Wire.encoded_length frame;
    match frame with
    | Wire.Solve_report r ->
      e.replied <- true;
      e.certified <- r.certified;
      e.warm <- r.warm;
      e.attempts <- r.attempts;
      e.objective <- r.objective;
      e.solve_s <- r.solve_s;
      e.total_s <- r.total_s;
      gate (r.seq = i + 1) "event %d answered with seq %d" (i + 1) r.seq
    | Wire.Error { code; message } ->
      e.replied <- true;
      gate false "event %d rejected: %s %s" (i + 1) (Wire.error_code_name code) message
    | f -> gate false "event %d: unexpected %s" (i + 1) (Wire.frame_name f)
  end

let event_timeout_s = 30.0

(* Drain every reply the client has buffered; false when the connection
   broke. *)
let rec drain c evs ~next_reply =
  match span c.sink sp_recv (fun () -> Wire_client.try_recv c.client) with
  | `Frame f ->
    take_reply c evs ~next_reply f;
    drain c evs ~next_reply
  | `Pending -> true
  | `Closed ->
    gate false "daemon closed the connection";
    false
  | `Error m ->
    gate false "undecodable reply: %s" m;
    false

(* Closed loop: each event is sent once the previous one is answered. *)
let replay c (inp : Inputs.churn) evs ~first_id =
  let next_reply = ref 0 and alive = ref true in
  let await upto =
    let deadline = now () +. event_timeout_s in
    while !alive && !next_reply < upto do
      ignore (span c.sink sp_poll (fun () -> Daemon.poll ~timeout:0.05 c.daemon));
      alive := drain c evs ~next_reply;
      if !alive && now () > deadline then begin
        gate false "event %d: no reply within %.0fs" (first_id + !next_reply + 1) event_timeout_s;
        alive := false
      end
    done
  in
  Array.iteri
    (fun i te ->
      if !alive then begin
        await i;
        let e = evs.(i) in
        e.send_at <- now ();
        e.bytes <- send c (Wire_event.to_frame te)
      end)
    inp.Inputs.events;
  await (Array.length evs)

(* Re-certify the final state from outside: rebuild every overlay from
   the engine's sessions and check [Engine.last_run] against them. *)
let certify_final sink engine =
  let g = Engine.graph engine in
  let overlays =
    Array.map
      (fun s -> span sink sp_overlay (fun () -> Overlay.create g Overlay.Ip s))
      (Engine.sessions engine)
  in
  match Engine.last_run engine with
  | Some (Engine.Run_maxflow r) ->
    Check.ok (span sink sp_certify (fun () -> Check.certify_max_flow g overlays r))
  | Some (Engine.Run_mcf r) ->
    Check.ok
      (span sink sp_certify (fun () ->
           Check.certify_mcf g overlays ~scaling:Max_concurrent_flow.Maxflow_weighted r))
  | None -> Engine.n_sessions engine = 0

(* One instance through its own daemon: set up, replay, re-certify,
   tear down. *)
type instance_run = {
  evs : ev array;
  kinds : kind_tag array;
  i_setup_s : float;
  i_create_s : float;
  stats : Daemon.stats;
  engine_certify_s : float;  (* engine.certify_s histogram delta *)
  i_deltas : int list;
  final : float;
}

let run_instance ~sink ~first_id (inp : Inputs.churn) =
  (try Sys.remove sock_path with Sys_error _ -> ());
  (* set-up: topology, engine with its resident population (one cold
     solve), daemon bound, client connected and through the handshake *)
  let t_setup = now () in
  let g = Inputs.graph inp in
  let t_create = now () in
  let engine =
    span sink sp_engine_create (fun () ->
        Engine.create ~config:Inputs.engine_config g inp.Inputs.resident)
  in
  let i_create_s = now () -. t_create in
  let daemon =
    span sink sp_daemon_create (fun () -> Daemon.create ~engine [ Unix.ADDR_UNIX sock_path ])
  in
  let client = Wire_client.connect (Unix.ADDR_UNIX sock_path) in
  (match
     span sink sp_handshake (fun () ->
         Daemon.drive daemon client (Wire.Hello { version = Wire.version }))
   with
  | Ok (Wire.Hello_ack _) -> ()
  | Ok f -> failwith ("handshake answered with " ^ Wire.frame_name f)
  | Error m -> failwith ("handshake: " ^ m));
  let i_setup_s = now () -. t_setup in
  let c = { sink; daemon; client; buf = Bytes.create 4096; scratch = Bytes.create 65536 } in
  let evs = Array.map (fun _ -> fresh_ev ()) inp.Inputs.events in
  let c0 = counters () and h0 = certify_hist_sum () in
  span sink sp_replay (fun () -> replay c inp evs ~first_id);
  let i_deltas = List.map2 ( - ) (counters ()) c0 in
  let engine_certify_s = certify_hist_sum () -. h0 in
  let stats = Daemon.stats daemon in
  let final = Engine.objective engine in
  gate (certify_final sink engine) "final state fails Check.certify from outside";
  Wire_client.close client;
  Daemon.stop daemon;
  (try Sys.remove sock_path with Sys_error _ -> ());
  {
    evs;
    kinds = Array.map kind_of inp.Inputs.events;
    i_setup_s;
    i_create_s;
    stats;
    engine_certify_s;
    i_deltas;
    final;
  }

(* The per-layer metrics of a traced pass, from its spans. *)
let span_layer = function
  | None -> []
  | Some sm ->
    [
      ("wire.encode_us", span_mean sm sp_encode *. 1e6);
      ("wire.decode_us", span_mean sm sp_decode *. 1e6);
      ("overlay.build_ms", span_mean sm sp_overlay *. 1e3);
      ("check.certify_ms", span_mean sm sp_certify *. 1e3);
      ("trace.unattributed_frac", sm.unattributed);
    ]

let churn_pass ~sink ~summary (insts : Inputs.churn array) =
  let t0 = now () and cpu0 = Sys.time () in
  let first_id = ref 0 in
  let runs =
    Array.map
      (fun inp ->
        let r = run_instance ~sink ~first_id:!first_id inp in
        first_id := !first_id + Array.length inp.Inputs.events;
        r)
      insts
  in
  let wall_s = now () -. t0 and cpu_s = Sys.time () -. cpu0 in
  let evs = Array.concat (Array.to_list (Array.map (fun r -> r.evs) runs)) in
  let kinds = Array.concat (Array.to_list (Array.map (fun r -> r.kinds) runs)) in
  let sum_runs f = Array.fold_left (fun a r -> a +. f r) 0.0 runs in
  let sum_runs_i f = Array.fold_left (fun a r -> a + f r) 0 runs in
  let deltas =
    Array.fold_left (fun acc r -> List.map2 ( + ) acc r.i_deltas)
      (List.map (fun _ -> 0) counter_names) runs
  in
  let n = Array.length evs in
  let certified e = e.replied && e.certified in
  let failed = Array.fold_left (fun a e -> if certified e then a else a + 1) 0 evs in
  gate (failed = 0) "%d of %d events without a certified reply" failed n;
  let lat = Array.map (fun e -> e.recv_at -. e.send_at) evs in
  let fe = float_of_int (Int.max n 1) in
  let sum f = Array.fold_left (fun a e -> a +. f e) 0.0 evs in
  let n_warm = Array.fold_left (fun a e -> if e.warm then a + 1 else a) 0 evs in
  let attempts = Array.fold_left (fun a e -> a + e.attempts) 0 evs in
  let total_s = sum (fun e -> e.total_s) and solve_s = sum (fun e -> e.solve_s) in
  let certify_s = sum_runs (fun r -> r.engine_certify_s) in
  let kind_p50 k =
    let xs = ref [] in
    Array.iteri (fun i e -> if kinds.(i) = k then xs := e.total_s :: !xs) evs;
    median_l !xs *. 1e3
  in
  let delta name = List.assoc name (List.combine counter_names deltas) in
  let per_event name = float_of_int (delta name) /. fe in
  let frames_in = sum_runs_i (fun r -> r.stats.Daemon.frames_in) in
  let errors = sum_runs_i (fun r -> r.stats.Daemon.errors_sent) in
  let layer =
    span_layer (summary ())
    @ [
        ("wire.bytes_per_event", sum (fun e -> float_of_int e.bytes) /. fe);
        ("daemon.overhead_us", (Stats.total lat -. total_s) /. fe *. 1e6);
        ("daemon.frames_in", float_of_int frames_in);
        ("daemon.errors_sent", float_of_int errors);
        ("engine.total_ms", total_s /. fe *. 1e3);
        ("engine.solve_ms", solve_s /. fe *. 1e3);
        ("engine.certify_ms", certify_s /. fe *. 1e3);
        ("engine.mutate_ms", (total_s -. solve_s -. certify_s) /. fe *. 1e3);
        ("engine.join_ms", kind_p50 Join);
        ("engine.leave_ms", kind_p50 Leave);
        ("engine.demand_ms", kind_p50 Demand);
        ("engine.capacity_ms", kind_p50 Capacity);
        ("engine.rung_attempts_per_event", float_of_int attempts /. fe);
        ("engine.rung_success_ratio", ratio (float_of_int n_warm) (float_of_int attempts));
        ("engine.cold_events", float_of_int (n - n_warm));
        ("engine.create_s", sum_runs (fun r -> r.i_create_s));
        ("maxflow.iterations", per_event "maxflow.iterations");
        ("mcf.phases", per_event "mcf.phases");
        ("overlay.mst_ops", per_event "overlay.mst_ops");
        ("overlay.ns_per_mst_op", ratio solve_s (float_of_int (delta "overlay.mst_ops")) *. 1e9);
        ("graph.prim_runs", per_event "graph.prim_runs");
        ("graph.dijkstra_runs", per_event "graph.dijkstra_runs");
        ("routing.snapshots", per_event "routing.snapshots");
      ]
  in
  let extra =
    Printf.sprintf "instances=%d warm=%d cold=%d attempts=%d frames_in=%d errors=%d"
      (Array.length runs) n_warm (n - n_warm) attempts frames_in errors
  in
  let objectives = Array.map (fun e -> e.objective) evs in
  let finals = Array.map (fun r -> r.final) runs in
  {
    traced = Obs.Sink.enabled sink;
    jobs = 1;
    setup_s = sum_runs (fun r -> r.i_setup_s);
    lat;
    wall_s;
    cpu_s;
    attempted = n;
    failed;
    objectives;
    finals;
    fingerprint = fingerprint ~events:n ~extra deltas (Array.append objectives finals);
    layer;
  }

(* Each instance's final objective must sit inside the FPTAS guarantee
   band of an in-process serial [Engine.replay] of the same trace.  The
   band, not bit-identity, so a daemon that coalesces events stays
   measurable. *)
let check_against_replay (insts : Inputs.churn array) finals =
  Array.iteri
    (fun k (inp : Inputs.churn) ->
      let engine =
        Engine.create ~config:Inputs.engine_config (Inputs.graph inp) inp.Inputs.resident
      in
      let reports = Engine.replay engine (Array.to_list inp.Inputs.events) in
      gate
        (List.for_all (fun (r : Engine.report) -> r.Engine.certified) reports)
        "instance %d: in-process reference replay not fully certified" (k + 1);
      let reference = Engine.objective engine in
      let eps = Inputs.engine_config.Engine.epsilon in
      let band = 1.0 -. (2.0 *. eps) -. Check.default_tol in
      let lo = Float.min reference finals.(k) and hi = Float.max reference finals.(k) in
      gate (hi = 0.0 || lo /. hi >= band)
        "instance %d: final objective %.17g outside the guarantee band of the in-process \
         replay (%.17g)"
        (k + 1) finals.(k) reference)
    insts

(* ---- batch-solve ---------------------------------------------------------- *)

(* The timed passes run serially: on a shared 2-vCPU host a pool of
   [nproc] domains waits on whichever vCPU the host has taken away, and
   its replay wall-clock ran 1.0-2.9x its CPU time (README.md).  The
   traced run also times pooled passes, for [par.speedup]. *)
let pool_jobs = Host.nproc ()

let solve_one ~sink ~par (s : Inputs.solve) =
  let mode = Inputs.mode s.Inputs.kind in
  let overlays =
    span sink sp_overlay (fun () ->
        Array.map (fun sess -> Overlay.create s.Inputs.graph mode sess) s.Inputs.sessions)
  in
  if Inputs.is_mcf s.Inputs.kind then begin
    let scaling = Max_concurrent_flow.Maxflow_weighted in
    let r =
      span sink sp_mcf (fun () ->
          Max_concurrent_flow.solve ~par s.Inputs.graph overlays ~epsilon:s.Inputs.epsilon
            ~scaling)
    in
    let v = span sink sp_certify (fun () -> Check.certify_mcf s.Inputs.graph overlays ~scaling r) in
    (Check.ok v, Solution.concurrent_ratio r.Max_concurrent_flow.solution)
  end
  else begin
    let r =
      span sink sp_maxflow (fun () ->
          Max_flow.solve ~par s.Inputs.graph overlays ~epsilon:s.Inputs.epsilon)
    in
    let v = span sink sp_certify (fun () -> Check.certify_max_flow s.Inputs.graph overlays r) in
    (Check.ok v, Solution.overall_throughput r.Max_flow.solution)
  end

let batch_pass ~sink ~summary ~jobs =
  (* set-up: build the rotation's instances, start the domain pool (none
     when serial) and let it and the caches settle with one certified
     solve per kind *)
  let t_setup = now () in
  let solves = Inputs.batch ~seed in
  let par = Par.create ~jobs () in
  List.iter
    (fun k ->
      match Array.find_opt (fun s -> s.Inputs.kind = k) solves with
      | Some s -> gate (fst (solve_one ~sink:Obs.Sink.null ~par s)) "warm-up solve certified"
      | None -> ())
    [ Inputs.Mf_ip; Inputs.Mcf_ip; Inputs.Mf_arb; Inputs.Mcf_arb ];
  let setup_s = now () -. t_setup in
  let n = Array.length solves in
  let lat = Array.make n 0.0 and oks = Array.make n false and objectives = Array.make n 0.0 in
  let c0 = counters () in
  let t_replay = now () and cpu0 = Sys.time () in
  span sink sp_replay (fun () ->
      Array.iteri
        (fun i s ->
          let t0 = now () in
          let ok, obj = solve_one ~sink ~par s in
          lat.(i) <- now () -. t0;
          oks.(i) <- ok;
          objectives.(i) <- obj;
          gate ok "solve %d (%s) not certified" (i + 1) (Inputs.kind_name s.Inputs.kind))
        solves);
  let wall_s = now () -. t_replay and cpu_s = Sys.time () -. cpu0 in
  let deltas = List.map2 ( - ) (counters ()) c0 in
  Par.shutdown par;
  let fe = float_of_int (Int.max n 1) in
  let delta name = List.assoc name (List.combine counter_names deltas) in
  let per_solve name = float_of_int (delta name) /. fe in
  let spans = summary () in
  let solver_ms id = match spans with Some sm -> span_mean sm id *. 1e3 | None -> 0.0 in
  let solver_s =
    match spans with Some sm -> span_total sm sp_maxflow +. span_total sm sp_mcf | None -> 0.0
  in
  let layer =
    span_layer spans
    @ [
        ("maxflow.solve_ms", solver_ms sp_maxflow);
        ("mcf.solve_ms", solver_ms sp_mcf);
        ("maxflow.iterations", per_solve "maxflow.iterations");
        ("mcf.phases", per_solve "mcf.phases");
        ("overlay.mst_ops", per_solve "overlay.mst_ops");
        ("overlay.ns_per_mst_op", ratio solver_s (float_of_int (delta "overlay.mst_ops")) *. 1e9);
        ("graph.prim_runs", per_solve "graph.prim_runs");
        ("graph.dijkstra_runs", per_solve "graph.dijkstra_runs");
        ("routing.snapshots", per_solve "routing.snapshots");
      ]
  in
  let failed = Array.fold_left (fun a ok -> if ok then a else a + 1) 0 oks in
  {
    traced = Obs.Sink.enabled sink;
    jobs;
    setup_s;
    lat;
    wall_s;
    cpu_s;
    attempted = n;
    failed;
    objectives;
    finals = [||];
    fingerprint = fingerprint ~events:n ~extra:"" deltas objectives;
    layer;
  }

(* Par's determinism contract, checked on the first solve of each
   routing mode: a pool of [nproc] domains must give the serial
   objective bits.  (The traced run's pooled passes are held to it on
   every solve by the fingerprint.) *)
let check_pooled_batch objectives =
  let solves = Inputs.batch ~seed in
  let par = Par.create ~jobs:pool_jobs () in
  List.iter
    (fun k ->
      match Array.find_index (fun s -> s.Inputs.kind = k) solves with
      | None -> ()
      | Some i ->
        let ok, obj = solve_one ~sink:Obs.Sink.null ~par solves.(i) in
        gate ok "pooled reference solve not certified";
        gate (same_bits obj objectives.(i))
          "solve %d: -j %d objective %.17g differs from serial %.17g" (i + 1) pool_jobs obj
          objectives.(i))
    [ Inputs.Mf_ip; Inputs.Mf_arb ];
  Par.shutdown par

(* ---- the run ------------------------------------------------------------ *)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

(* Counts must repeat across runs at a fixed seed: the first run of a
   given build records them, later runs compare. *)
let check_across_runs fp =
  let exe = try Digest.to_hex (Digest.file Sys.executable_name) with Sys_error _ -> "unknown" in
  let dir = Filename.concat out_dir "fingerprints" in
  mkdir_p dir;
  let path = Filename.concat dir (Printf.sprintf "%s-seed%d-%s.txt" workload seed exe) in
  if Sys.file_exists path then begin
    let ic = open_in path in
    let prev = input_line ic in
    close_in ic;
    gate (String.equal prev fp) "counts differ from an earlier run at seed %d:\n  %s\n  %s" seed prev fp
  end
  else begin
    let tmp = path ^ ".tmp" in
    let oc = open_out tmp in
    output_string oc (fp ^ "\n");
    close_out oc;
    Sys.rename tmp path
  end

let json_metrics metrics =
  String.concat ","
    (List.map
       (fun (name, unit, v) ->
         let v = if Float.is_finite v then v else 0.0 in
         Printf.sprintf "%S:{\"value\":%.17g,\"unit\":%S}" name v unit)
       metrics)

(* Every per-layer metric with its unit.  A pass sets the ones that
   apply to its workload; the rest read 0. *)
let layer_units =
  [
    ("wire.encode_us", "us"); ("wire.decode_us", "us"); ("wire.bytes_per_event", "bytes");
    ("daemon.overhead_us", "us"); ("daemon.frames_in", "count"); ("daemon.errors_sent", "count");
    ("engine.total_ms", "ms"); ("engine.solve_ms", "ms"); ("engine.certify_ms", "ms");
    ("engine.mutate_ms", "ms"); ("engine.join_ms", "ms"); ("engine.leave_ms", "ms");
    ("engine.demand_ms", "ms"); ("engine.capacity_ms", "ms");
    ("engine.rung_attempts_per_event", "count"); ("engine.rung_success_ratio", "ratio");
    ("engine.cold_events", "count"); ("engine.create_s", "s");
    ("maxflow.solve_ms", "ms"); ("mcf.solve_ms", "ms"); ("maxflow.iterations", "count");
    ("mcf.phases", "count"); ("overlay.mst_ops", "count"); ("overlay.ns_per_mst_op", "ns");
    ("overlay.build_ms", "ms"); ("graph.prim_runs", "count"); ("graph.dijkstra_runs", "count");
    ("routing.snapshots", "count"); ("check.certify_ms", "ms");
    ("par.speedup", "ratio"); ("trace.unattributed_frac", "ratio"); ("trace.overhead_frac", "ratio");
  ]

(* Per-event minimum over passes. *)
let min_latencies passes =
  match passes with
  | [] -> [||]
  | p :: _ ->
    Array.mapi (fun i _ -> List.fold_left (fun m q -> Float.min m q.lat.(i)) infinity passes) p.lat

let () =
  mkdir_p out_dir;
  Printf.printf "perfbench %s seed=%d seconds=%.0f trace=%d\n%!" workload seed seconds
    (if traced_run then 1 else 0);
  let calib_start = Host.calibrate () in
  (* the traced passes' spans: one pass at a time, the last one is
     written out at exit *)
  let ring = if traced_run then Some (Obs.Trace.create ~capacity:(1 lsl 17) ()) else None in
  let churn = if workload = "batch-solve" then None else Some (Inputs.membership_churn ~seed) in
  let run_pass ~traced ~jobs =
    let sink, summary =
      match ring with
      | Some ring when traced ->
        Obs.Trace.clear ring;
        ( Obs.Trace.sink ring,
          fun () ->
            gate (Obs.Trace.dropped ring = 0) "span ring overflowed (%d events dropped)"
              (Obs.Trace.dropped ring);
            Some (summarise ring) )
      | _ -> (Obs.Sink.null, fun () -> None)
    in
    match churn with
    | Some inp -> churn_pass ~sink ~summary inp
    | None -> batch_pass ~sink ~summary ~jobs
  in
  (* passes: untraced and serial only for the end-to-end run.  The
     traced run alternates untraced and traced ones, whose difference is
     the tracing overhead, and on [batch-solve] adds an untraced pass on
     a pool of [nproc] domains to each round, for [par.speedup].  At
     least [min_passes], and as many more as fit in [seconds]. *)
  let round = if not traced_run then 1 else if churn = None then 3 else 2 in
  let passes = ref [] in
  let t_measure = now () in
  let pass_count = ref 0 in
  let continue () =
    let elapsed = now () -. t_measure in
    (!pass_count < min_passes || elapsed < seconds) && elapsed < max_measure_s && !failures = []
  in
  while continue () do
    let traced = !pass_count mod round = 1 and jobs = if !pass_count mod round = 2 then pool_jobs else 1 in
    (* every pass starts from the same compacted heap *)
    Gc.compact ();
    let p = run_pass ~traced ~jobs in
    incr pass_count;
    Printf.printf
      "pass %d%s: setup %.3fs replay %.3fs wall %.3fs cpu events %d failed %d | %s\n%!"
      !pass_count
      (if traced then " (traced)" else if jobs > 1 then Printf.sprintf " (-j %d)" jobs else "")
      p.setup_s p.wall_s p.cpu_s p.attempted
      p.failed
      p.fingerprint;
    passes := p :: !passes
  done;
  let passes = List.rev !passes in
  (* determinism: counts and objectives repeat exactly across passes *)
  (match passes with
  | first :: rest ->
    List.iteri
      (fun i p ->
        gate (String.equal p.fingerprint first.fingerprint)
          "pass %d counts or objectives differ from pass 1" (i + 2))
      rest;
    if !failures = [] then check_across_runs first.fingerprint;
    (* correctness against an in-process reference *)
    (match churn with
    | Some insts -> check_against_replay insts first.finals
    | None -> check_pooled_batch first.objectives)
  | [] -> gate false "no pass completed");
  let calib_end = Host.calibrate () in
  let untraced = List.filter (fun p -> (not p.traced) && p.jobs = 1) passes in
  let attempted = List.fold_left (fun a p -> a + p.attempted) 0 passes in
  let failed = List.fold_left (fun a p -> a + p.failed) 0 passes in
  let failed = if !failures <> [] && failed = 0 then 1 else failed in
  Printf.printf "host %s\n"
    (Host.json ~par_jobs:1
       ~pool_jobs:(List.fold_left (fun m p -> if p.jobs > 1 then p.jobs else m) 0 passes)
       ~calib_start ~calib_end);
  let setup_s = List.fold_left (fun m p -> Float.min m p.setup_s) infinity untraced in
  let metrics =
    if not traced_run then begin
      let lat = min_latencies untraced in
      let n = Array.length lat in
      Printf.printf "latency deciles p10..p90, p95, p99 (ms): %s\n"
        (String.concat " "
           (List.map
              (fun p -> Printf.sprintf "%.2f" (pct lat p *. 1e3))
              [ 10.; 20.; 30.; 40.; 50.; 60.; 70.; 80.; 90.; 95.; 99. ]));
      [
        ("events_per_s", "1/s", ratio (float_of_int n) (Array.fold_left ( +. ) 0.0 lat));
        ("latency_p50_ms", "ms", pct lat 50.0 *. 1e3);
        ("latency_p90_ms", "ms", pct lat 90.0 *. 1e3);
        ("setup_s", "s", setup_s);
        ("rss_peak_mb", "MB", Host.rss_peak_mb ());
      ]
    end
    else begin
      let traced = List.filter (fun p -> p.traced) passes in
      let sum_min ps = Array.fold_left ( +. ) 0.0 (min_latencies ps) in
      let overhead = ratio (sum_min traced) (sum_min untraced) -. 1.0 in
      let pooled = List.filter (fun p -> p.jobs > 1) passes in
      let speedup = if pooled = [] then 0.0 else ratio (sum_min untraced) (sum_min pooled) in
      let layer name =
        median_l
          (List.map (fun p -> Option.value (List.assoc_opt name p.layer) ~default:0.0) traced)
      in
      let unattributed = layer "trace.unattributed_frac" in
      gate (unattributed <= unattributed_tol)
        "layer spans leave %.3f of the replay wall-clock unattributed (tolerance %.2f)"
        unattributed unattributed_tol;
      let m =
        List.map
          (fun (name, unit) ->
            let v =
              match name with
              | "trace.overhead_frac" -> overhead
              | "par.speedup" -> speedup
              | _ -> layer name
            in
            (name, unit, v))
          layer_units
      in
      let path = Filename.concat out_dir (Printf.sprintf "spans-%s-seed%d.json" workload seed) in
      Option.iter
        (fun ring ->
          Obs_export.trace_to_file path ring;
          Printf.printf "wrote %s (%d span events of the last traced pass)\n" path
            (Obs.Trace.recorded ring))
        ring;
      m
    end
  in
  let n_events = match passes with p :: _ -> p.attempted | [] -> 0 in
  Printf.printf "events per pass %d, passes %d, failed_frac %.4f (%d of %d)\n" n_events
    (List.length passes)
    (ratio (float_of_int failed) (float_of_int (Int.max attempted 1)))
    failed attempted;
  List.iter (fun (name, unit, v) -> Printf.printf "  %-32s %14.6g %s\n" name v unit) metrics;
  List.iter (fun m -> Printf.printf "FAIL: %s\n" m) (List.rev !failures);
  let correct = !failures = [] in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!" correct
    (Int.max attempted 1) failed (json_metrics metrics);
  exit (if correct then 0 else 1)
