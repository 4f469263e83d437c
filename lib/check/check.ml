let default_tol = 1e-6

type violation =
  | Negative_rate of { slot : int; rate : float }
  | Wrong_session of { slot : int; tree_session_id : int; expected : int }
  | Not_spanning of { slot : int; n_members : int; detail : string }
  | Route_endpoints of {
      slot : int;
      pair : int * int;
      src : int;
      dst : int;
      expected_src : int;
      expected_dst : int;
    }
  | Broken_route of { slot : int; pair : int * int }
  | Usage_mismatch of { slot : int; edge : int; claimed : int; recomputed : int }
  | Overload of { edge : int; load : float; capacity : float }
  | Weak_duality of { primal : float; dual_bound : float }
  | Duality_gap of {
      primal : float;
      dual_bound : float;
      claimed : float;
      achieved : float;
    }
  | Scaling_violation of { slot : int; expected : float; actual : float; detail : string }

type verdict = {
  violations : violation list;
  checked_sessions : int;
  checked_trees : int;
  max_congestion : float;
  primal : float option;
  dual_bound : float option;
  loads : float array;
}

let ok v = v.violations = []

let violation_names =
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

let violation_code = function
  | Negative_rate _ -> 0
  | Wrong_session _ -> 1
  | Not_spanning _ -> 2
  | Route_endpoints _ -> 3
  | Broken_route _ -> 4
  | Usage_mismatch _ -> 5
  | Overload _ -> 6
  | Weak_duality _ -> 7
  | Duality_gap _ -> 8
  | Scaling_violation _ -> 9

let violation_name v = violation_names.(violation_code v)

let pp_violation fmt = function
  | Negative_rate { slot; rate } ->
    Format.fprintf fmt "negative_rate: session %d carries rate %g" slot rate
  | Wrong_session { slot; tree_session_id; expected } ->
    Format.fprintf fmt
      "wrong_session: tree filed under slot %d claims session id %d (expected %d)"
      slot tree_session_id expected
  | Not_spanning { slot; n_members; detail } ->
    Format.fprintf fmt
      "not_spanning: session %d tree is not a spanning tree over %d members (%s)"
      slot n_members detail
  | Route_endpoints { slot; pair = a, b; src; dst; expected_src; expected_dst } ->
    Format.fprintf fmt
      "route_endpoints: session %d overlay edge (%d,%d) realized by route \
       %d->%d, expected %d<->%d"
      slot a b src dst expected_src expected_dst
  | Broken_route { slot; pair = a, b } ->
    Format.fprintf fmt
      "broken_route: session %d overlay edge (%d,%d) has a non-contiguous \
       physical route"
      slot a b
  | Usage_mismatch { slot; edge; claimed; recomputed } ->
    Format.fprintf fmt
      "usage_mismatch: session %d claims n_e(%d)=%d but the routes contain it \
       %d times"
      slot edge claimed recomputed
  | Overload { edge; load; capacity } ->
    Format.fprintf fmt "overload: edge %d carries %g over capacity %g" edge
      load capacity
  | Weak_duality { primal; dual_bound } ->
    Format.fprintf fmt
      "weak_duality: primal %g exceeds the dual upper bound %g" primal
      dual_bound
  | Duality_gap { primal; dual_bound; claimed; achieved } ->
    Format.fprintf fmt
      "duality_gap: primal %g vs dual bound %g achieves %.6f of optimal, \
       below the claimed %.6f"
      primal dual_bound achieved claimed
  | Scaling_violation { slot; expected; actual; detail } ->
    Format.fprintf fmt
      "scaling_violation: session %d working demand %g, re-derivation says %g \
       (%s)"
      slot actual expected detail

let pp_verdict fmt v =
  if ok v then
    Format.fprintf fmt
      "certificate OK: %d sessions, %d trees, max congestion %.6f%t" v.checked_sessions
      v.checked_trees v.max_congestion (fun fmt ->
        match (v.primal, v.dual_bound) with
        | Some p, Some d ->
          Format.fprintf fmt ", primal %.4f <= dual bound %.4f (gap %.4f)" p d
            (if d > 0.0 then p /. d else nan)
        | _ -> ())
  else begin
    Format.fprintf fmt "certificate FAILED: %d violation(s)"
      (List.length v.violations);
    List.iter (fun viol -> Format.fprintf fmt "@\n  - %a" pp_violation viol)
      v.violations
  end

(* --- structural certificate -------------------------------------------- *)

(* Minimal union-find over member slots; local on purpose — the kernel
   re-derives connectivity itself rather than delegating to the same
   helpers the solvers use. *)
let spanning_detail pairs ~n =
  if Array.length pairs <> n - 1 then
    Some (Printf.sprintf "%d overlay edges where %d were required"
            (Array.length pairs) (n - 1))
  else begin
    let parent = Array.init n (fun i -> i) in
    let rec find x = if parent.(x) = x then x else find parent.(x) in
    let bad = ref None in
    Array.iter
      (fun (a, b) ->
        if !bad = None then
          if a < 0 || b < 0 || a >= n || b >= n then
            bad := Some (Printf.sprintf "member slot out of range in (%d,%d)" a b)
          else if a = b then
            bad := Some (Printf.sprintf "self-loop (%d,%d)" a b)
          else begin
            let ra = find a and rb = find b in
            if ra = rb then
              bad := Some (Printf.sprintf "(%d,%d) closes a cycle" a b)
            else parent.(ra) <- rb
          end)
      pairs;
    !bad
    (* n-1 acyclic edges over n vertices are necessarily connected *)
  end

let check_tree ~violations ~loads g slot session (tree : Otree.t) rate =
  if rate < 0.0 then
    violations := Negative_rate { slot; rate } :: !violations;
  if tree.Otree.session_id <> session.Session.id then
    violations :=
      Wrong_session
        { slot; tree_session_id = tree.Otree.session_id;
          expected = session.Session.id }
      :: !violations;
  let n = Session.size session in
  let members = session.Session.members in
  (match spanning_detail tree.Otree.pairs ~n with
  | Some detail ->
    violations := Not_spanning { slot; n_members = n; detail } :: !violations
  | None -> ());
  (* recount physical multiplicities by re-walking every route *)
  let recomputed = Hashtbl.create 32 in
  Array.iteri
    (fun j ((a, b) as pair) ->
      let route = tree.Otree.routes.(j) in
      if a >= 0 && b >= 0 && a < n && b < n then begin
        let es = members.(a) and ed = members.(b) in
        let src = route.Route.src and dst = route.Route.dst in
        if not ((src = es && dst = ed) || (src = ed && dst = es)) then
          violations :=
            Route_endpoints
              { slot; pair; src; dst; expected_src = es; expected_dst = ed }
            :: !violations
      end;
      if not (Route.is_valid g route) then
        violations := Broken_route { slot; pair } :: !violations;
      Route.iter_edges route (fun id ->
          Hashtbl.replace recomputed id
            (1 + Option.value ~default:0 (Hashtbl.find_opt recomputed id))))
    tree.Otree.pairs;
  (* the tree's own usage table must agree with the recount *)
  let seen = Hashtbl.create 32 in
  Otree.iter_usage tree (fun id claimed ->
      Hashtbl.replace seen id ();
      let actual = Option.value ~default:0 (Hashtbl.find_opt recomputed id) in
      if actual <> claimed then
        violations :=
          Usage_mismatch { slot; edge = id; claimed; recomputed = actual }
          :: !violations);
  Hashtbl.iter
    (fun id actual ->
      if not (Hashtbl.mem seen id) then
        violations :=
          Usage_mismatch { slot; edge = id; claimed = 0; recomputed = actual }
          :: !violations)
    recomputed;
  (* loads accumulate from the recount, not the table *)
  Hashtbl.iter
    (fun id count ->
      if id >= 0 && id < Array.length loads then
        loads.(id) <- loads.(id) +. (float_of_int count *. rate))
    recomputed

let certify ?(tol = default_tol) g solution =
  let sessions = Solution.sessions solution in
  let violations = ref [] in
  let loads = Array.make (Graph.n_edges g) 0.0 in
  let n_trees = ref 0 in
  Array.iteri
    (fun slot session ->
      List.iter
        (fun (tree, rate) ->
          incr n_trees;
          check_tree ~violations ~loads g slot session tree rate)
        (Solution.trees solution slot))
    sessions;
  let worst = ref 0.0 in
  Graph.iter_edges g (fun e ->
      let load = loads.(e.Graph.id) in
      if e.Graph.capacity > 0.0 then begin
        worst := Float.max !worst (load /. e.Graph.capacity);
        if load > e.Graph.capacity *. (1.0 +. tol) then
          violations :=
            Overload { edge = e.Graph.id; load; capacity = e.Graph.capacity }
            :: !violations
      end
      else if load > 0.0 then begin
        worst := infinity;
        violations :=
          Overload { edge = e.Graph.id; load; capacity = e.Graph.capacity }
          :: !violations
      end);
  {
    violations = List.rev !violations;
    checked_sessions = Array.length sessions;
    checked_trees = !n_trees;
    max_congestion = !worst;
    primal = None;
    dual_bound = None;
    loads;
  }

(* --- duality certificates ----------------------------------------------- *)

let session_rate_from_trees solution slot =
  List.fold_left (fun acc (_, r) -> acc +. r) 0.0 (Solution.trees solution slot)

let require_same_sessions ~who g overlays solution =
  let sessions = Solution.sessions solution in
  if Array.length overlays <> Array.length sessions then
    invalid_arg (who ^ ": overlay/session count mismatch");
  Array.iteri
    (fun i o ->
      if (Overlay.session o).Session.id <> sessions.(i).Session.id then
        invalid_arg (who ^ ": overlay/session id mismatch");
      if Overlay.graph o != g then
        invalid_arg (who ^ ": overlay built on a different graph"))
    overlays;
  sessions

(* sum_e c_e * lens_e, in the scale-free units of [dual_lengths] *)
let dual_objective g lens =
  Graph.fold_edges g
    (fun acc e ->
      if e.Graph.capacity > 0.0 then
        acc +. (e.Graph.capacity *. lens.(e.Graph.id))
      else acc)
    0.0

let min_tree_weight overlay lens =
  let length id = lens.(id) in
  let tree = Overlay.min_spanning_tree overlay ~length in
  Otree.weight tree ~length

(* [primal >= claimed * ub] certifies the approximation factor because
   [ub >= OPT] by weak duality; [primal <= ub] is weak duality itself.
   [ln_ub] arrives in log space so the dual scale factor exp(ln_base)
   never has to be materialized. *)
let duality_checks ~tol ~claimed ~primal ~ln_ub violations =
  let dual_bound = exp ln_ub in
  if not (Float.is_finite dual_bound && dual_bound > 0.0) then
    violations := Weak_duality { primal; dual_bound } :: !violations
  else begin
    let achieved = primal /. dual_bound in
    if achieved > 1.0 +. tol then
      violations := Weak_duality { primal; dual_bound } :: !violations
    else if achieved < claimed -. tol then
      violations :=
        Duality_gap { primal; dual_bound; claimed; achieved } :: !violations
  end;
  dual_bound

let certify_max_flow ?(tol = default_tol) g overlays (r : Max_flow.result) =
  let solution = r.Max_flow.solution in
  let sessions =
    require_same_sessions ~who:"Check.certify_max_flow" g overlays solution
  in
  let base = certify ~tol g solution in
  let smax = float_of_int (Session.max_size sessions - 1) in
  let primal =
    let acc = ref 0.0 in
    Array.iteri
      (fun i s ->
        acc :=
          !acc
          +. (float_of_int (Session.receivers s)
             *. session_rate_from_trees solution i))
      sessions;
    !acc /. smax
  in
  let lens = r.Max_flow.dual_lengths in
  let s_obj = dual_objective g lens in
  (* alpha(d): minimum normalized overlay-spanning-tree length, from a
     from-scratch MST per session under the final lengths *)
  let alpha = ref infinity in
  Array.iteri
    (fun i o ->
      let w =
        min_tree_weight o lens
        *. (smax /. float_of_int (Session.receivers sessions.(i)))
      in
      alpha := Float.min !alpha w)
    overlays;
  let violations = ref (List.rev base.violations) in
  (* exp(dual_ln_base) scales numerator and denominator alike, so the
     ratio D(d)/alpha(d) is computed purely in the lens units *)
  let ln_ub = log s_obj -. log !alpha in
  let claimed = 1.0 -. (2.0 *. r.Max_flow.epsilon) in
  let dual_bound = duality_checks ~tol ~claimed ~primal ~ln_ub violations in
  {
    base with
    violations = List.rev !violations;
    primal = Some primal;
    dual_bound = Some dual_bound;
  }

let certify_mcf ?(tol = default_tol) g overlays ~scaling
    (r : Max_concurrent_flow.result) =
  let solution = r.Max_concurrent_flow.solution in
  let sessions =
    require_same_sessions ~who:"Check.certify_mcf" g overlays solution
  in
  let base = certify ~tol g solution in
  let violations = ref (List.rev base.violations) in
  let k = Array.length sessions in
  let kf = float_of_int k in
  let zetas = r.Max_concurrent_flow.zetas in
  let working = r.Max_concurrent_flow.working_demands in
  if Array.length zetas <> k || Array.length working <> k then
    invalid_arg "Check.certify_mcf: result arrays disagree with session count";
  (* Re-derive the preprocessing demand scaling (Sec. III-C) from the
     zetas and check the main loop routed a common power-of-two multiple
     of it: doublings at the T-horizon scale every session equally, so
     the direction must match exactly. *)
  let bases =
    match scaling with
    | Max_concurrent_flow.Maxflow_weighted ->
      Array.map (fun z -> Float.max (z /. kf) 1e-12) zetas
    | Max_concurrent_flow.Proportional ->
      let lambda =
        Array.fold_left Float.min infinity
          (Array.mapi
             (fun i z -> z /. sessions.(i).Session.demand)
             zetas)
      in
      let s = Float.max (lambda /. kf) 1e-12 in
      Array.map (fun sess -> sess.Session.demand *. s) sessions
  in
  let gamma = working.(0) /. bases.(0) in
  Array.iteri
    (fun i w ->
      let expected = gamma *. bases.(i) in
      if abs_float (w -. expected) > tol *. Float.max expected 1e-12 then
        violations :=
          Scaling_violation
            { slot = i; expected; actual = w;
              detail =
                (match scaling with
                | Max_concurrent_flow.Maxflow_weighted ->
                  "not proportional to the zetas"
                | Max_concurrent_flow.Proportional ->
                  "requested demand ratios not preserved") }
          :: !violations)
    working;
  let log2_gamma = Float.round (log gamma /. log 2.0) in
  let pow2 = Float.pow 2.0 log2_gamma in
  if
    log2_gamma < -0.5
    || abs_float (gamma -. pow2) > tol *. Float.max pow2 1e-12
  then
    violations :=
      Scaling_violation
        { slot = -1; expected = pow2; actual = gamma;
          detail = "overall factor is not a power-of-two demand doubling" }
      :: !violations;
  (* Concurrent-flow duality in the working-demand direction:
     OPT <= sum_e c_e d_e / sum_i working_i * mintree_i(d). *)
  let primal =
    let f = ref infinity in
    Array.iteri
      (fun i _ ->
        f := Float.min !f (session_rate_from_trees solution i /. working.(i)))
      sessions;
    !f
  in
  let lens = r.Max_concurrent_flow.dual_lengths in
  let s_obj = dual_objective g lens in
  let denom = ref 0.0 in
  Array.iteri
    (fun i o -> denom := !denom +. (working.(i) *. min_tree_weight o lens))
    overlays;
  let ln_ub = log s_obj -. log !denom in
  let claimed = 1.0 -. (3.0 *. r.Max_concurrent_flow.epsilon) in
  let dual_bound = duality_checks ~tol ~claimed ~primal ~ln_ub violations in
  {
    base with
    violations = List.rev !violations;
    primal = Some primal;
    dual_bound = Some dual_bound;
  }
