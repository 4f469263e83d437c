(** Trace analysis: reports computed from {!Obs.Event.t} sequences.

    This module closes the record→read→analyze loop of the telemetry
    pipeline: events captured by an {!Obs.Trace} ring or an
    [Obs_stream] JSONL file (read back by [Obs_export.read_trace]) are
    reduced to the summaries the related overlay-routing literature
    evaluates algorithms by — convergence trajectories, time profiles,
    and engine-efficiency splits — plus a structural diff for
    regression-gating solver {e behaviour} rather than only its output
    values.

    Every function here is a pure fold over an event array: analysis
    never touches solver state, so the DESIGN.md §5 invariant
    (instrumentation must not perturb solver output) extends trivially
    to it.  All reports tolerate truncated traces (ring wraparound
    drops the oldest events): missing [run_start]/opening spans simply
    leave the corresponding fields [None]/uncounted. *)

(** {1 Generic helpers} *)

(** [kind_counts events] tallies events per kind, sorted by wire name;
    kinds that never occur are omitted. *)
val kind_counts : Obs.Event.t array -> (Obs.kind * int) list

(** {1 Convergence report}

    The Garg–Könemann profile: how much flow each accepted iteration
    routed and how long the solver spent between iterations, with
    rescale / demand-doubling markers and the run's final objective. *)

type iter_point = {
  iteration : int;  (** 1-based index ([iter_end.a]) *)
  session : int;  (** winning session slot *)
  flow : float;  (** flow routed in the step ([iter_end.b]) *)
  time : float;  (** event timestamp, seconds since process start *)
  dt : float;
      (** inter-event time: seconds since the previous [iter_end] (or
          since [run_start] for the first point; 0 when unknown) *)
}

type marker = {
  m_time : float;
  m_value : float;  (** [rescale]: new [ln_base]; [demand_double]: phase *)
}

type convergence = {
  run_name : string option;  (** first [run_start]'s interned name *)
  n_sessions : int option;  (** first [run_start.a] *)
  parameter : float option;  (** first [run_start.b] (ε, σ or budget) *)
  iterations : int;  (** number of [iter_start] events *)
  phases : int;  (** number of [phase_start] events *)
  points : iter_point array;  (** one per [iter_end], in trace order *)
  rescales : marker array;
  demand_doubles : marker array;
  session_rates : (int * float) array;  (** final per-slot rates *)
  final_objective : float option;  (** last [run_end.b] *)
  run_iterations : float option;  (** last [run_end.a] *)
  total_flow : float;  (** sum of routed flow over [points] *)
  duration : float;  (** last event time − first event time *)
}

val convergence : Obs.Event.t array -> convergence

(** [convergence_csv c] renders the full per-iteration trajectory as
    CSV (header [kind,iteration,time,dt,session,value]): one [iter_end]
    row per point ([value] = flow) interleaved in trace order with
    [rescale] / [demand_double] marker rows ([value] = the marker
    payload). *)
val convergence_csv : convergence -> string

(** [render_convergence ?buckets c] renders a human-readable summary:
    the run header (name, sessions, parameter, iterations, objective)
    and the trajectory compressed into at most [buckets] (default 20)
    equal-width iteration buckets with per-bucket flow statistics. *)
val render_convergence : ?buckets:int -> convergence -> string

(** {1 Span profile} *)

type span_stat = {
  span : string;
  count : int;  (** completed spans of this name *)
  total_s : float;  (** summed durations *)
  self_s : float;  (** durations minus directly nested spans *)
  max_depth : int;  (** deepest nesting this span was opened at *)
}

(** [span_profile events] aggregates [span_open]/[span_close] pairs per
    span name, sorted by [total_s] descending.  Self time subtracts
    only {e directly} nested child spans, so sibling leaves account
    for their own time exactly once. *)
val span_profile : Obs.Event.t array -> span_stat list

val render_spans : span_stat list -> string

(** {1 MST-engine efficiency}

    Where the incremental overlay-length engine (DESIGN.md §5) spends
    its work: per session, how many MST calls ran Prim (eager vs
    lazy-bound) versus being answered from the previous tree, and how
    many per-overlay-edge weight re-walks they cost. *)

type mst_session = {
  mst_session : int;
  recomputes : int;  (** [mst_recompute] events *)
  lazy_skips : int;  (** [mst_lazy_skip] events *)
  eager_runs : int;  (** recomputes on the eager Prim path ([b] = 0) *)
  lazy_runs : int;  (** recomputes on the lazy-bound path ([b] = 1) *)
  weight_walks : int;  (** summed [mst_recompute.a] *)
}

type mst_report = {
  per_session : mst_session array;  (** sorted by session id *)
  total_recomputes : int;
  total_lazy_skips : int;
  total_weight_walks : int;
}

val mst_efficiency : Obs.Event.t array -> mst_report
val render_mst : mst_report -> string

(** {1 Two-trace structural diff}

    Compares what two runs {e did}, ignoring timestamps and durations
    entirely (wall-clock is never comparable across runs): per-kind
    event counts, and drift in iteration/phase counts and objectives
    under explicit tolerances.  Two runs of a deterministic solver on
    the same instance must diff equal; a changed event sequence is a
    behaviour change even when the output values still agree. *)

type kind_delta = {
  k_kind : Obs.kind;
  count_a : int;
  count_b : int;
}

type drift = {
  metric : string;
  value_a : float;
  value_b : float;
  within_tol : bool;
}

type diff_report = {
  kind_deltas : kind_delta list;
      (** every kind occurring in either trace, sorted by wire name *)
  drifts : drift list;
  counts_equal : bool;  (** all kind deltas are zero *)
  equal : bool;  (** [counts_equal] and every drift within tolerance *)
}

(** [diff ?iter_tol ?obj_tol a b] — [iter_tol] (default 0) bounds the
    allowed absolute difference in iteration/phase/rescale/doubling
    counts; [obj_tol] (default 1e-9) bounds the allowed {e relative}
    difference in final objective and total routed flow. *)
val diff :
  ?iter_tol:int ->
  ?obj_tol:float ->
  Obs.Event.t array ->
  Obs.Event.t array ->
  diff_report

val render_diff : diff_report -> string

(** {1 Engine windowed report}

    Time-series reduction of an [overlay-engine-trace/1] capture (the
    churn engine's [event_start]/[event_end]/[rung_attempt]/
    [cold_fallback]/[certify_fail] vocabulary, payloads documented on
    {!Obs.kind}): events/sec and joins/sec, per-window re-solve latency
    quantiles, warm/cold split and rung-escalation counts over time —
    the sustained joins-per-second view ROADMAP item 2's daemon
    reports.  Latencies aggregate through {!Obs.Histogram}, so every
    quantile carries its 2.2% relative-error bound and the total row is
    literally the merge of the per-window histograms.  Solver events
    interleaved in the same capture are ignored. *)

(** Wire names of the churn event-type codes carried in
    [event_start.a]: [ [| "join"; "leave"; "demand"; "capacity";
    "initial" |] ].  Mirrors the emitting table in [lib/engine] (this
    library sits below [core] and cannot see [Churn]); the engine-trace
    round-trip test pins the two against each other. *)
val engine_event_kinds : string array

(** Names of the certificate-violation codes carried in
    [certify_fail.a] (the first violation of the rejected verdict):
    [ [| "negative_rate"; "wrong_session"; "not_spanning";
    "route_endpoints"; "broken_route"; "usage_mismatch"; "overload";
    "weak_duality"; "duality_gap"; "scaling_violation" |] ].  Mirrors
    [Check.violation_names] (not visible from this library); the
    engine-trace test pins the two against each other. *)
val certify_violation_names : string array

type engine_window = {
  w_start : float;  (** window start, seconds from the first engine event *)
  w_end : float;
  w_events : int;  (** completed events ([event_end]) in the window *)
  w_kinds : int array;  (** per {!engine_event_kinds} code *)
  w_warm : int;  (** events accepted on the warm path *)
  w_cold : int;
  w_rungs : int;  (** warm rungs tried ([rung_attempt]) *)
  w_escalations : int;  (** rung attempts past the first rung *)
  w_cold_fallbacks : int;
  w_certify_fails : int;
  w_certify_codes : int array;
      (** certify failures per {!certify_violation_names} code, plus a
          last slot for codes outside the table *)
  w_p50 : float;  (** re-solve latency quantiles, seconds *)
  w_p90 : float;
  w_p99 : float;
  w_max : float;
}

type engine_report = {
  g_window_s : float;  (** window width used *)
  g_t0 : float;  (** first engine event's absolute timestamp *)
  g_duration : float;
  g_events : int;
  g_events_per_s : float;
  g_joins_per_s : float;
  g_windows : engine_window array;
  g_total : engine_window;  (** whole-capture aggregate (merged windows) *)
}

(** [engine_report ?window events] folds a capture into windows of
    [window] seconds (default: a tenth of the capture's engine-event
    time range).  An empty capture yields [g_events = 0] and no
    windows. *)
val engine_report : ?window:float -> Obs.Event.t array -> engine_report

(** [engine_csv r] renders one CSV row per window plus a [total] row
    (columns: window bounds, per-kind counts, warm/cold, rung and
    failure counts, latency quantiles in ms). *)
val engine_csv : engine_report -> string

val render_engine : engine_report -> string
