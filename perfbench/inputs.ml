(* Every input of every workload, drawn from the workload seed.  The
   program only ever sees the generated topology, sessions and events;
   the same seed gives the same inputs. *)

let streams seed k =
  let master = Rng.create seed in
  Array.init k (fun _ -> Rng.split master)

(* ---- membership churn (daemon path) ------------------------------------ *)

let n_nodes = 40

type churn = {
  topo_seed : int;
  resident : Session.t array;  (** sessions present before the first event *)
  events : Churn.timed array;
}

(* The engine as served with [--ratio 0.7]: epsilon 0.15, the default
   warm ladder.  At the default epsilon 0.05 a pass that can be repeated
   six times in a run fits about 150 membership events, too few for p50
   to hold still between seeds (it moved by up to 40%).  At 0.1 a join
   took 3-10 ms and a 60 s run repeated each event 50-60 times; at 0.15
   a join takes about half that and a run repeats each event 75-150
   times, so more of them land in a quiet moment of the host. *)
let engine_config = { Engine.default_config with Engine.epsilon = 0.15 }

(* The engine mutates capacities, so every pass rebuilds the topology. *)
let graph c =
  (Waxman.generate (Rng.create c.topo_seed)
     { Waxman.default_params with n = n_nodes })
    .Topology.graph

let resident rng ~count ~first_id =
  Array.init count (fun i ->
      Session.random rng ~id:(first_id + i) ~topology_size:n_nodes
        ~size:(3 + (i mod 3)) ~demand:1.0)

let base rng =
  let r = Array.init 4 (fun _ -> Rng.split rng) in
  let topo_seed = Rng.int r.(0) 1_000_000_000 in
  (r, { topo_seed; resident = [||]; events = [||] })

(* A churn workload is [count] independent instances — topology,
   resident population, trace — replayed one after another.  Solve cost
   varies by half between one random 40-node instance and the next, so
   a run averages over several to keep seed-to-seed spread small. *)
let instances ~seed ~count make =
  let master = Rng.create seed in
  Array.init count (fun _ ->
      let r, c = base (Rng.split master) in
      let e = Array.init 2 (fun _ -> Rng.split master) in
      make r c e)

(* Churn with a controlled shape: events arrive as a Poisson process
   ([gap] is the mean spacing), the count of sessions that may leave
   (starting with [active]) falls from above [hi] or climbs from [lo]
   until it reaches the other end, by leaves and joins, over and over, and in
   every block of 20 events 3 rescale a random active session's demand
   and 1 a random link's capacity (factor uniform in [0.5, 2) of the
   original).  The seed picks members, sizes (3, 4 and 5 in equal
   shares), who leaves, and the perturbations.  A free birth-death
   process would let the mean active count, and with it the cost of
   every solve, swing by a seventh between seeds. *)
let sawtooth rng g ~active ~n_events ~lo ~hi ~gap ~first_id =
  let active = ref active and next_id = ref first_id and rising = ref true in
  let t = ref 0.0 in
  let sizes = [| 3; 4; 5 |] in
  let factor () = 0.5 +. Rng.float rng 1.5 in
  let pick_active () = List.nth !active (Rng.int rng (List.length !active)) in
  List.init n_events (fun i ->
      t := !t +. Rng.exponential rng ~mean:gap;
      let event =
        match i mod 20 with
        | 4 | 10 | 16 when !active <> [] ->
          Churn.Demand_change { id = pick_active (); demand = factor () }
        | 13 ->
          let edge = Rng.int rng (Graph.n_edges g) in
          Churn.Capacity_change { edge; capacity = Graph.capacity g edge *. factor () }
        | _ ->
          let n = List.length !active in
          if n >= hi then rising := false;
          if n <= lo then rising := true;
          if !rising then begin
            if !next_id mod 3 = 0 then Rng.shuffle rng sizes;
            let size = sizes.(!next_id mod 3) in
            let id = !next_id in
            incr next_id;
            active := id :: !active;
            let s =
              Session.random rng ~id ~topology_size:n_nodes ~size ~demand:1.0
            in
            Churn.Session_join { id; members = s.Session.members; demand = 1.0 }
          end
          else begin
            let id = pick_active () in
            active := List.filter (fun x -> x <> id) !active;
            Churn.Session_leave { id }
          end
      in
      { Churn.at = !t; event })

(* 4 resident sessions that churn away and come back: per instance 3
   demand and capacity perturbations, 7 leaves and 4 joins, in a fixed
   order.  Joins and leaves must not split the events in half: the
   median latency would then fall between the slowest leave and the
   fastest join, and move with those two events alone. *)
let membership_churn ~seed =
  instances ~seed ~count:30 @@ fun r c e ->
  let g = graph c in
  let resident = resident r.(1) ~count:4 ~first_id:100_000 in
  let active = Array.to_list (Array.map (fun s -> s.Session.id) resident) in
  {
    c with
    resident;
    events =
      Array.of_list (sawtooth e.(0) g ~active ~n_events:14 ~lo:1 ~hi:3 ~gap:0.5 ~first_id:0);
  }

(* ---- batch-solve ------------------------------------------------------ *)

type kind = Mf_ip | Mcf_ip | Mf_arb | Mcf_arb

let kind_name = function
  | Mf_ip -> "maxflow/ip"
  | Mcf_ip -> "mcf/ip"
  | Mf_arb -> "maxflow/arbitrary"
  | Mcf_arb -> "mcf/arbitrary"

let is_mcf = function Mcf_ip | Mcf_arb -> true | Mf_ip | Mf_arb -> false

let mode = function
  | Mf_ip | Mcf_ip -> Overlay.Ip
  | Mf_arb | Mcf_arb -> Overlay.Arbitrary

type solve = {
  kind : kind;
  graph : Graph.t;
  sessions : Session.t array;
  epsilon : float;
}

(* Setup A instances (Waxman, capacity 100, demand 100) scaled down so
   that one solve takes 1-3.5 ms: IP MaxFlow on 40 nodes with sessions
   of 5 and 4 (ratio 0.7), IP MCF on 20 nodes with sessions of 4 and 3
   (ratio 0.6).  Arbitrary routing re-runs a Dijkstra per member at
   every MST evaluation, so its instances are 8-node (MaxFlow, ratio
   0.6) and 7-node (MCF, ratio 0.4) graphs with two sessions of 3.
   Short solves are what keeps the per-solve minimum steady: a 60 s
   run repeats each one 130-230 times, and a solve that fits in a
   quiet moment of the host is timed without interference.  (At Setup A
   size, 10-30 ms per solve, a run fitted 20 repeats and the minimum
   still moved with the host.)  The kinds' times overlap and no kind
   holds half the rotation, so p50 and p90 fall inside the mixture, not
   on the edge between two kinds, where they would move with the few
   instances on either side.  The rotation interleaves the kinds so a
   slow stretch of the host does not land on one kind. *)
let batch ~seed =
  let r = streams seed 4 in
  let instance rng ~n ~sizes =
    let s =
      Setup.make_a ~seed:(Rng.int rng 1_000_000_000)
        { Setup.default_a with Setup.n_nodes = n; session_sizes = sizes }
    in
    (s.Setup.topology.Topology.graph, s.Setup.sessions)
  in
  let make kind =
    let (graph, sessions), epsilon =
      match kind with
      | Mf_ip -> (instance r.(0) ~n:40 ~sizes:[| 5; 4 |], Max_flow.ratio_to_epsilon 0.7)
      | Mcf_ip ->
        (instance r.(1) ~n:20 ~sizes:[| 4; 3 |], Max_concurrent_flow.ratio_to_epsilon 0.6)
      | Mf_arb -> (instance r.(2) ~n:8 ~sizes:[| 3; 3 |], Max_flow.ratio_to_epsilon 0.6)
      | Mcf_arb ->
        (instance r.(3) ~n:7 ~sizes:[| 3; 3 |], Max_concurrent_flow.ratio_to_epsilon 0.4)
    in
    { kind; graph; sessions; epsilon }
  in
  let round = [| Mf_ip; Mcf_arb; Mf_arb; Mf_ip; Mcf_ip; Mcf_arb; Mf_ip; Mf_arb |] in
  Array.init 104 (fun i -> make round.(i mod Array.length round))
