open Kernel

(* The serial adversary's transition system, interned per shard. The
   arena DFS re-enters semantically identical adversary states constantly
   (budgets and victim pools converge fast), and the per-edge work the
   immutable DFS used to redo — [Serial.adversary_choices],
   [Serial.plan_of] + [Schedule.compile_plan], [Serial.advance], the
   [Bitset.Big] mirrors, the leaf schedule — is a pure function of that
   state. Interning makes each of them a one-time cost per distinct
   adversary state; a warm edge is two array loads and no allocation.

   A menu is single-owner like the arena it feeds: one per shard, never
   shared across domains. *)

type node = {
  adv : Serial.adversary;
  choices : Serial.choice array;  (* in [Serial.adversary_choices] order *)
  plans : Sim.Schedule.compiled_plan array;  (* [plans.(i)] compiles [choices.(i)] *)
  nexts : node option array;  (* memoized [advance] targets *)
  aliveb : Bitset.Big.t;
  sendb : Bitset.Big.t;
  recvb : Bitset.Big.t;
  omitb : Bitset.Big.t;  (* [sendb ∪ recvb], what a leaf is judged against *)
  leaf_schedule : Sim.Schedule.t;
}

(* The intern key is the canonical bitset/budget tuple, NOT the adversary
   record: structurally different [Pid.Set] trees can denote the same set,
   and [Bitset.Big]'s trimmed-array form restores canonical [( = )] /
   [Hashtbl.hash]. Two adversaries with equal keys have identical choice
   menus, transitions and leaf schedules. *)
type key = {
  key_alive : Bitset.Big.t;
  key_send : Bitset.Big.t;
  key_recv : Bitset.Big.t;
  key_crashes_left : int;
  key_omit_left : int;
}

type t = {
  config : Config.t;
  policy : Serial.policy;
  faults : Sim.Model.faults;
  omit_budget : int option;
  budget : Sim.Model.budget option;
  empty_schedule : Sim.Schedule.t;
  interned : (key, node) Hashtbl.t;
}

let create ?(faults = Sim.Model.Crash_only) ?omit_budget ~policy config =
  {
    config;
    policy;
    faults;
    omit_budget;
    budget = Serial.budget_of ?omit_budget ~faults config;
    empty_schedule = Serial.to_schedule config [];
    interned = Hashtbl.create 256;
  }

let big_of_set s =
  Pid.Set.fold
    (fun p acc -> Bitset.Big.add (Pid.to_int p) acc)
    s Bitset.Big.empty

(* Leaves are judged against the run's omitter declarations (validity on
   everybody, agreement/termination on the fault-free set), so omission
   nodes carry a plan-free schedule declaring them; crash-only nodes share
   one empty schedule. [Schedule.make] folds the omitter list into a map,
   so list order is irrelevant and this matches what the per-path
   [Serial.omitters_of] construction used to build. *)
let leaf_schedule_of t (adv : Serial.adversary) =
  let omitters =
    List.map
      (fun p -> (p, Sim.Model.Send_omit))
      (Pid.Set.elements adv.Serial.send_omitters)
    @ List.map
        (fun p -> (p, Sim.Model.Recv_omit))
        (Pid.Set.elements adv.Serial.recv_omitters)
  in
  if omitters = [] then t.empty_schedule
  else
    Sim.Schedule.make ~omitters ?budget:t.budget ~model:Sim.Model.Es
      ~gst:Round.first []

let node_of t adv =
  let aliveb = big_of_set adv.Serial.alive in
  let sendb = big_of_set adv.Serial.send_omitters in
  let recvb = big_of_set adv.Serial.recv_omitters in
  let key =
    {
      key_alive = aliveb;
      key_send = sendb;
      key_recv = recvb;
      key_crashes_left = adv.Serial.crashes_left;
      key_omit_left = adv.Serial.omit_left;
    }
  in
  match Hashtbl.find_opt t.interned key with
  | Some node -> node
  | None ->
      let choices =
        Array.of_list
          (Serial.adversary_choices ~policy:t.policy ~faults:t.faults adv)
      in
      let n = Config.n t.config in
      let node =
        {
          adv;
          choices;
          plans =
            Array.map
              (fun c ->
                Sim.Schedule.compile_plan ~n (Serial.plan_of t.config c))
              choices;
          nexts = Array.make (Array.length choices) None;
          aliveb;
          sendb;
          recvb;
          omitb = Bitset.Big.union sendb recvb;
          leaf_schedule = leaf_schedule_of t adv;
        }
      in
      Hashtbl.add t.interned key node;
      node

let root t =
  node_of t (Serial.initial ?omit_budget:t.omit_budget ~faults:t.faults t.config)

let child t node i =
  match node.nexts.(i) with
  | Some c -> c
  | None ->
      let c = node_of t (Serial.advance node.adv node.choices.(i)) in
      node.nexts.(i) <- Some c;
      c
