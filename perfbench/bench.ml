(* The repository benchmark's measuring program.

   Usage:
     bench.exe --workload W --seed S --seconds N --trace 0|1 [--spans FILE]

   W is one of sweep-none, sweep-omit, fuzz. The program runs
   the workload single-process and single-domain through the entry points
   `ipi sweep --jobs 1` and `ipi fuzz` use, checks every pass against the
   pinned verdicts below, and prints one JSON object of raw measurements
   (sums, counts and samples) as its last stdout line. perfbench/run.py
   builds it, runs it in a fresh process per workload and turns the raw
   numbers into the benchmark's metrics; all the arithmetic lives there.

   Order of work in one invocation:
   - set-up: everything a user pays once per invocation before the first
     result — the algorithm lookup, the inputs (binary assignments, fuzz
     schedules) and, for sweeps, a cold menu interned down to the horizon.
     It is repeated in chunks: one before the warm-up, one after each
     timed pass;
   - one warm-up pass, then timed passes until [--seconds] have elapsed;
   - with [--trace 1] only: one traced pass that brackets the calls into
     each layer's public functions from this file (fine-grained calls feed
     per-layer accumulators; coarse spans go to [--spans] as a Chrome
     trace), checked against the untraced pass. *)

open Kernel

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let ns_to_s ns = float_of_int ns /. 1e9

let lookup label =
  match Expt.Registry.find label with
  | Some e -> e.Expt.Registry.algo
  | None -> failwith ("unknown algorithm " ^ label)

(* ------------------------------------------------------------------ *)
(* Workloads and their pinned verdicts                                  *)

type dedup_pin = {
  hits : int;
  lookups : int;
  entries : int;
  snapshots : int;
  restores : int;
}

type sweep = {
  label : string;
  n : int;
  t : int;
  faults : Sim.Model.faults;
  runs : int;
  explored : int;
  decisions : int * int;  (** pinned [min, max] global decision round *)
  dedup : dedup_pin option;  (** [Some] selects [--reduce dedup] *)
}

(* Every sweep is exhaustive over all 2^n binary assignments with the
   default [Prefixes] policy and omission budget 1, as `ipi sweep --binary
   --jobs 1` runs it. Violations, undecided runs, crashed runs and shard
   failures are pinned to 0 for all of them. *)
let sweep_none =
  [
    {
      label = "FloodSet";
      n = 6;
      t = 2;
      faults = Sim.Model.Crash_only;
      runs = 354_880;
      explored = 354_880;
      decisions = (3, 3);
      dedup = None;
    };
    {
      label = "A(t+2)";
      n = 6;
      t = 2;
      faults = Sim.Model.Crash_only;
      runs = 354_880;
      explored = 354_880;
      decisions = (4, 4);
      dedup = None;
    };
  ]

let sweep_omit =
  [
    {
      label = "A(t+2)";
      n = 5;
      t = 2;
      faults = Sim.Model.Mixed;
      runs = 2_538_912;
      explored = 52_387;
      decisions = (4, 12);
      dedup =
        Some
          {
            hits = 985_754;
            lookups = 1_237_020;
            entries = 251_266;
            snapshots = 198_879;
            restores = 1_036_029;
          };
    };
  ]

type campaign = {
  clabel : string;
  cn : int;
  ct : int;
  gen : Fuzz.Campaign.gen;
  cruns : int;
  shrink : bool;
  clean : bool;
      (** [true]: no finding allowed. [false]: findings are expected
          agreement violations; each must shrink to a schedule that still
          violates agreement with at least one declared omitter. *)
  pinned : int list;
      (** finding indices for {!default_seed}; other seeds are checked
          only by the properties above *)
}

let default_seed = 1

let fuzz =
  [
    {
      clabel = "A(t+2)";
      cn = 9;
      ct = 4;
      gen = Fuzz.Campaign.default_gen;
      cruns = 5_000;
      shrink = false;
      clean = true;
      pinned = [];
    };
    {
      clabel = "FloodSet";
      cn = 5;
      ct = 2;
      gen =
        (fun config rng ->
          Workload.Random_runs.with_omissions rng config
            ~faults:Sim.Model.Send_omit_only ~omit_budget:1 ());
      cruns = 20_000;
      shrink = true;
      clean = false;
      pinned = [ 2318; 14939; 17320; 17812 ];
    };
  ]

type workload = Sweeps of sweep list | Fuzz of campaign list

let workload_of_name = function
  | "sweep-none" -> Some (Sweeps sweep_none)
  | "sweep-omit" -> Some (Sweeps sweep_omit)
  | "fuzz" -> Some (Fuzz fuzz)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Passes                                                               *)

type pass = {
  kind : string;  (** "warmup", "timed" or "traced" *)
  runs : int;  (** runs accounted *)
  failures : int;  (** contained failures among them *)
  mismatches : string list;  (** differences from the pinned verdict *)
  wall_ns : int;
  minor_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
}

(* Runs [f] and returns its [(runs, failures, mismatches)] verdict as a
   pass with the wall time and GC deltas around it. [Gc.minor_words] is
   exact; [quick_stat]'s promoted words refresh at each minor collection,
   which a pass triggers thousands of times. *)
let measure kind f =
  let s0 = Gc.quick_stat () in
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  let runs, failures, mismatches = f () in
  let t1 = now_ns () in
  let w1 = Gc.minor_words () in
  let s1 = Gc.quick_stat () in
  {
    kind;
    runs;
    failures;
    mismatches;
    wall_ns = t1 - t0;
    minor_words = w1 -. w0;
    promoted_words = s1.Gc.promoted_words -. s0.Gc.promoted_words;
    minor_collections = s1.Gc.minor_collections - s0.Gc.minor_collections;
    major_collections = s1.Gc.major_collections - s0.Gc.major_collections;
  }

let field who name got want =
  if got = want then []
  else [ Printf.sprintf "%s %s: got %d, pinned %d" who name got want ]

let check_sweep (s : sweep) (r : Mc.Exhaustive.result) stats =
  let who = Printf.sprintf "%s n=%d t=%d" s.label s.n s.t in
  let dmin, dmax = s.decisions in
  List.concat
    [
      field who "runs" r.runs s.runs;
      field who "explored" r.distinct_runs s.explored;
      field who "min decision" r.min_decision dmin;
      field who "max decision" r.max_decision dmax;
      field who "violations" (List.length r.violations) 0;
      field who "undecided" r.undecided_runs 0;
      field who "crashed" (List.length r.crashed) 0;
      field who "shard failures" (List.length r.shard_failures) 0;
      (if r.expired then [ who ^ " expired" ] else []);
      (match (s.dedup, (stats : Mc.Dedup.stats option)) with
      | None, None -> []
      | Some d, Some st ->
          List.concat
            [
              field who "hits" st.hits d.hits;
              field who "lookups" (st.hits + st.misses) d.lookups;
              field who "entries" st.entries d.entries;
              field who "snapshots" st.snapshots d.snapshots;
              field who "restores" st.restores d.restores;
              field who "spilled" st.spilled 0;
            ]
      | _ -> [ who ^ " dedup stats missing" ]);
    ]

let sweep_failures (r : Mc.Exhaustive.result) =
  List.length r.crashed + List.length r.shard_failures

type prepared_sweep = {
  sweep : sweep;
  algo : Sim.Algorithm.packed;
  config : Config.t;
  assignments : Value.t Pid.Map.t list;
  mutable last : (Mc.Exhaustive.result * Mc.Dedup.stats option) option;
      (** the latest untraced pass's result, which the traced pass must
          reproduce *)
}

(* The same calls `ipi sweep --binary --jobs 1 [--faults F] [--reduce
   dedup]` makes. *)
let run_sweep p =
  let s = p.sweep in
  match s.dedup with
  | None ->
      ( Mc.Exhaustive.sweep_binary_incremental ~faults:s.faults ~omit_budget:1
          ~policy:Mc.Serial.Prefixes ~algo:p.algo ~config:p.config (),
        None )
  | Some _ ->
      let r, st =
        Mc.Dedup.sweep_binary ~faults:s.faults ~omit_budget:1
          ~policy:Mc.Serial.Prefixes ~algo:p.algo ~config:p.config ()
      in
      (r, Some st)

let sweeps_pass prepared () =
  List.fold_left
    (fun (runs, failures, mismatches) p ->
      let r, st = run_sweep p in
      p.last <- Some (r, st);
      ( runs + r.Mc.Exhaustive.runs,
        failures + sweep_failures r,
        mismatches @ check_sweep p.sweep r st ))
    (0, 0, []) prepared

type prepared_campaign = {
  campaign : campaign;
  calgo : Sim.Algorithm.packed;
  cconfig : Config.t;
  proposals : Value.t Pid.Map.t;
  schedules : Sim.Schedule.t array;
  mutable last_report : Fuzz.Campaign.report option;
}

let generate (c : campaign) config ~seed =
  let rng = Rng.create ~seed in
  let rec go i acc =
    if i = c.cruns then Array.of_list (List.rev acc)
    else go (i + 1) (c.gen config rng :: acc)
  in
  go 0 []

(* The campaign receives only the pre-generated schedules: the generator
   it is handed replays them in order and ignores its rng. *)
let replaying schedules : Fuzz.Campaign.gen =
  let next = ref 0 in
  fun _ _ ->
    let s = schedules.(!next) in
    incr next;
    s

let run_campaign ?(monitor = true) p ~seed =
  Fuzz.Campaign.run ~jobs:1 ~shrink:p.campaign.shrink ~monitor ~seed
    ~runs:p.campaign.cruns ~algo:p.calgo ~config:p.cconfig
    ~proposals:p.proposals ~gen:(replaying p.schedules) ()

let is_agreement o = Fuzz.Outcome.failure_of o = Some Fuzz.Outcome.Agreement

let contained (f : Fuzz.Campaign.finding) =
  match Fuzz.Outcome.failure_of f.outcome with
  | Some (Fuzz.Outcome.Crash | Fuzz.Outcome.Fuel) -> true
  | _ -> false

let check_campaign p ~seed (r : Fuzz.Campaign.report) =
  let c = p.campaign in
  let who = Printf.sprintf "%s n=%d t=%d fuzz" c.clabel c.cn c.ct in
  let findings = r.findings in
  let finding_ok (f : Fuzz.Campaign.finding) =
    is_agreement f.outcome
    &&
    match f.shrunk with
    | None -> false
    | Some s ->
        s.Fuzz.Shrink.failure = Fuzz.Outcome.Agreement
        && Sim.Schedule.omitters s.schedule <> []
        && is_agreement
             (Fuzz.Harness.run_contained ~algo:p.calgo ~config:p.cconfig
                ~proposals:p.proposals s.schedule)
  in
  List.concat
    [
      field who "runs" r.runs c.cruns;
      field who "skipped" r.skipped 0;
      (if c.clean then field who "findings" (List.length findings) 0
       else
         List.filter_map
           (fun (f : Fuzz.Campaign.finding) ->
             if finding_ok f then None
             else
               Some
                 (Printf.sprintf
                    "%s finding #%d is not a shrunk agreement violation with \
                     an omitter"
                    who f.index))
           findings);
      (if seed = default_seed && not c.clean then
         let got = List.map (fun (f : Fuzz.Campaign.finding) -> f.index) findings in
         if got = c.pinned then []
         else
           [
             Printf.sprintf "%s findings at [%s], pinned [%s]" who
               (String.concat ";" (List.map string_of_int got))
               (String.concat ";" (List.map string_of_int c.pinned));
           ]
       else []);
    ]

let campaign_failures (r : Fuzz.Campaign.report) =
  List.length (List.filter contained r.findings)

let fuzz_pass prepared ~seed () =
  List.fold_left
    (fun (runs, failures, mismatches) p ->
      let r = run_campaign p ~seed in
      p.last_report <- Some r;
      ( runs + r.Fuzz.Campaign.runs,
        failures + campaign_failures r,
        mismatches @ check_campaign p ~seed r ))
    (0, 0, []) prepared

(* ------------------------------------------------------------------ *)
(* Set-up                                                               *)

(* Interns every menu node reachable within [horizon] rounds — the work
   each sweep shard repeats on its own fresh menu — and returns the number
   of distinct nodes. The walk goes level by level and keeps nodes
   distinct by physical identity: the menu interns each state once, so
   [==] is node equality and the walk itself hashes nothing. *)
let intern_menu ~faults config =
  let menu =
    Mc.Menu.create ~faults ~omit_budget:1 ~policy:Mc.Serial.Prefixes config
  in
  let add node nodes = if List.memq node nodes then nodes else node :: nodes in
  let rec walk depth frontier seen =
    if depth = 0 then List.length seen
    else begin
      let next = ref [] in
      List.iter
        (fun (node : Mc.Menu.node) ->
          for i = 0 to Array.length node.choices - 1 do
            next := add (Mc.Menu.child menu node i) !next
          done)
        frontier;
      walk (depth - 1) !next (List.fold_left (fun seen n -> add n seen) seen !next)
    end
  in
  let root = Mc.Menu.root menu in
  walk (Config.t config + 2) [ root ] [ root ]

type setup = {
  mutable setup_ns : int list;
  mutable menu_ns : int list;  (** the menu-interning part of each set-up *)
  mutable menu_nodes : int;
}

let setup_once workload ~seed =
  match workload with
  | Sweeps sweeps ->
      let menu_ns = ref 0 and nodes = ref 0 in
      let prepared =
        List.map
          (fun s ->
            let algo = lookup s.label in
            let config = Config.make ~n:s.n ~t:s.t in
            let assignments = Mc.Exhaustive.binary_assignments config in
            let t0 = now_ns () in
            nodes := !nodes + intern_menu ~faults:s.faults config;
            menu_ns := !menu_ns + (now_ns () - t0);
            { sweep = s; algo; config; assignments; last = None })
          sweeps
      in
      (`Sweeps prepared, !menu_ns, !nodes)
  | Fuzz campaigns ->
      ( `Fuzz
          (List.map
             (fun c ->
               let calgo = lookup c.clabel in
               let cconfig = Config.make ~n:c.cn ~t:c.ct in
               {
                 campaign = c;
                 calgo;
                 cconfig;
                 proposals = Sim.Runner.distinct_proposals cconfig;
                 schedules = generate c cconfig ~seed;
                 last_report = None;
               })
             campaigns),
        0,
        0 )

(* Set-up is sampled in chunks, one before the warm-up and one after each
   timed pass, so its median sees the same machine as the passes rather
   than one fraction of a second of it. A sweep set-up takes under 1 ms,
   so a chunk repeats it 100 times and counts as one sample, its mean:
   single sweep set-ups fall into a fast and a slow cluster, and a median
   of them jumps between the two. Drawing the fuzz schedules takes about
   0.1 s. *)
let setup_chunk = function Sweeps _ -> 100 | Fuzz _ -> 1

(* Runs one chunk of set-ups, records their mean times and returns the
   inputs the last one built. Each set-up starts on a collected heap, as
   it does in a fresh process: otherwise it would pay the major-GC work
   the previous pass left behind. *)
let sample_setup st workload ~seed =
  let k = setup_chunk workload in
  let rec go i total menu_total =
    Gc.full_major ();
    let t0 = now_ns () in
    let result, menu_ns, nodes = setup_once workload ~seed in
    let total = total + (now_ns () - t0) and menu_total = menu_total + menu_ns in
    st.menu_nodes <- nodes;
    if i < k then go (i + 1) total menu_total
    else begin
      st.setup_ns <- (total / k) :: st.setup_ns;
      st.menu_ns <- (menu_total / k) :: st.menu_ns;
      result
    end
  in
  go 1 0 0

(* The collection before each set-up leaves the next pass starting at the
   same minor-heap fill every time, and a seed-dependent one. What a fuzz
   pass promotes depends on it: each campaign builds its schedule list up
   front, and whether a minor collection falls while that list is live
   moves promoted words per run by a fifth. Allocating, untimed, a share
   of the minor heap that differs from pass to pass spreads the passes
   over fill levels, so the per-run GC figures average over them. *)
let shift_minor_heap pass_index =
  let words = (Gc.get ()).Gc.minor_heap_size in
  let share = Float.rem (float_of_int pass_index *. 0.6180339887) 1.0 in
  for _ = 1 to int_of_float (share *. float_of_int words) / 4 do
    ignore (Sys.opaque_identity (Array.make 3 0))
  done

(* ------------------------------------------------------------------ *)
(* Traced passes                                                        *)

(* Per-layer accumulators of a traced run: counts describing the measured
   pass, and calls plus nanoseconds spent inside each layer's public
   functions during the traced replay. *)
type ledger = {
  mutable pass_ns : int;  (** the traced pass, for [trace.overhead] *)
  mutable pass_runs : int;
  mutable edges : int;
  mutable snapshots : int;
  mutable restores : int;
  mutable leaves : int;  (** runs that reached a leaf of the DFS *)
  mutable lookups : int;
  mutable hits : int;
  mutable entries : int;
  mutable shard_ns : int list;
  mutable shard_promoted : float;
  mutable merge_ns : int;  (** Exhaustive.merge / Dedup.combine *)
  mutable replay_ns : int;  (** the unreduced replay, for [ledger.closure] *)
  mutable replay_edges : int;
  mutable replay_leaves : int;
  mutable menu_ns : int;  (** Menu.create/root/child *)
  mutable step_ns : int;  (** Arena.save/step/restore/drop *)
  mutable finish_ns : int;
  mutable finish_rounds : int;
  mutable check_ns : int;  (** Exhaustive.add_run, with its choice list *)
  mutable check_words : float;
  mutable gen_ns : int;
  mutable gen_schedules : int;
  mutable harness_ns : int;
  mutable harness_rounds : int;
  mutable harness_us : float list;
  mutable monitor_on_ns : int;
  mutable monitor_off_ns : int;
  mutable shrink_ns : int;
  mutable shrink_steps : int;
  mutable findings : int;
}

let ledger () =
  {
    pass_ns = 0;
    pass_runs = 0;
    edges = 0;
    snapshots = 0;
    restores = 0;
    leaves = 0;
    lookups = 0;
    hits = 0;
    entries = 0;
    shard_ns = [];
    shard_promoted = 0.;
    merge_ns = 0;
    replay_ns = 0;
    replay_edges = 0;
    replay_leaves = 0;
    menu_ns = 0;
    step_ns = 0;
    finish_ns = 0;
    finish_rounds = 0;
    check_ns = 0;
    check_words = 0.;
    gen_ns = 0;
    gen_schedules = 0;
    harness_ns = 0;
    harness_rounds = 0;
    harness_us = [];
    monitor_on_ns = 0;
    monitor_off_ns = 0;
    shrink_ns = 0;
    shrink_steps = 0;
    findings = 0;
  }

(* The unreduced DFS of [Mc.Exhaustive.sweep_prefix] (empty prefix, no
   deadline), re-driven from here over the menu's compiled plans so each
   call into Menu, Arena and add_run can be timed. Same branch discipline,
   same leaf order, hence the same result. *)
let replay_assignment led ~algo:(Sim.Algorithm.Packed (module A)) ~faults
    ~config ~proposals =
  let module E = Sim.Engine.Make (A) in
  let horizon = Config.t config + 2 in
  let max_rounds = Sim.Engine.round_bound config ~horizon ~gst:1 in
  let t0 = now_ns () in
  let menu =
    Mc.Menu.create ~faults ~omit_budget:1 ~policy:Mc.Serial.Prefixes config
  in
  let root = Mc.Menu.root menu in
  led.menu_ns <- led.menu_ns + (now_ns () - t0);
  let child node i =
    let t0 = now_ns () in
    let c = Mc.Menu.child menu node i in
    led.menu_ns <- led.menu_ns + (now_ns () - t0);
    c
  in
  let arena = E.Arena.create config ~proposals in
  let acc = ref Mc.Exhaustive.empty in
  let path = Array.make horizon Mc.Serial.No_crash in
  let crashed error =
    let t0 = now_ns () in
    acc := Mc.Exhaustive.add_crashed !acc ~choices:(Array.to_list path) ~error;
    led.check_ns <- led.check_ns + (now_ns () - t0)
  in
  let leaf (node : Mc.Menu.node) =
    let r0 = Round.to_int (E.Arena.next_round arena) in
    let t0 = now_ns () in
    match
      E.Arena.finish ~max_rounds ~schedule:node.leaf_schedule arena
    with
    | exception Sim.Engine.Step_error error ->
        led.finish_ns <- led.finish_ns + (now_ns () - t0);
        crashed error
    | trace ->
        let t1 = now_ns () in
        led.finish_ns <- led.finish_ns + (t1 - t0);
        led.finish_rounds <-
          led.finish_rounds + Round.to_int (E.Arena.next_round arena) - r0;
        let w0 = Gc.minor_words () in
        let t2 = now_ns () in
        acc := Mc.Exhaustive.add_run !acc ~choices:(Array.to_list path) ~trace;
        led.check_ns <- led.check_ns + (now_ns () - t2);
        led.check_words <- led.check_words +. (Gc.minor_words () -. w0);
        led.replay_leaves <- led.replay_leaves + 1
  in
  let rec go depth (node : Mc.Menu.node) err =
    if depth = 0 then
      match err with Some error -> crashed error | None -> leaf node
    else
      let k = Array.length node.choices in
      match err with
      | Some _ ->
          for i = 0 to k - 1 do
            path.(horizon - depth) <- node.choices.(i);
            go (depth - 1) (child node i) err
          done
      | None ->
          let t0 = now_ns () in
          E.Arena.save arena;
          led.step_ns <- led.step_ns + (now_ns () - t0);
          for i = 0 to k - 1 do
            if i > 0 then (
              let t0 = now_ns () in
              E.Arena.restore arena;
              led.step_ns <- led.step_ns + (now_ns () - t0));
            path.(horizon - depth) <- node.choices.(i);
            led.replay_edges <- led.replay_edges + 1;
            let t0 = now_ns () in
            let err' =
              match E.Arena.step arena node.plans.(i) with
              | () -> None
              | exception Sim.Engine.Step_error e -> Some e
            in
            led.step_ns <- led.step_ns + (now_ns () - t0);
            go (depth - 1) (child node i) err'
          done;
          let t0 = now_ns () in
          E.Arena.drop arena;
          led.step_ns <- led.step_ns + (now_ns () - t0)
  in
  go horizon root None;
  led.snapshots <- led.snapshots + E.Arena.snapshots arena;
  led.restores <- led.restores + E.Arena.restores arena;
  !acc

let merge_timed led f =
  let t0 = now_ns () in
  let r = f () in
  led.merge_ns <- led.merge_ns + (now_ns () - t0);
  r

(* The traced counterpart of one unreduced sweep: every assignment
   replayed under its own span, folded with [Exhaustive.merge] in
   assignment order. *)
let replay_sweep led spans p =
  let i = ref (-1) in
  List.fold_left
    (fun acc proposals ->
      incr i;
      let r =
        Obs.Span.with_ spans (Printf.sprintf "assignment %d" !i) (fun () ->
            replay_assignment led ~algo:p.algo ~faults:p.sweep.faults
              ~config:p.config ~proposals)
      in
      merge_timed led (fun () -> Mc.Exhaustive.merge acc r))
    Mc.Exhaustive.empty p.assignments

(* The traced counterpart of one dedup sweep: [Dedup.sweep_prefix] per
   first-round shard, folded with [Dedup.combine] within an assignment and
   [Exhaustive.merge] across assignments — what [Dedup.sweep_binary] does
   internally. *)
let shard_dedup led spans p =
  let s = p.sweep in
  let firsts =
    Mc.Dedup.first_choices ~faults:s.faults ~omit_budget:1
      ~policy:Mc.Serial.Prefixes p.config
  in
  let i = ref (-1) in
  List.fold_left
    (fun (acc, stats) proposals ->
      incr i;
      let r, st =
        Obs.Span.with_ spans (Printf.sprintf "assignment %d" !i) (fun () ->
            List.fold_left
              (fun (acc, stats) first ->
                let p0 = (Gc.quick_stat ()).Gc.promoted_words in
                let t0 = now_ns () in
                let r, st =
                  Obs.Span.with_ spans
                    (Format.asprintf "shard %a" Mc.Serial.pp_choice first)
                    (fun () ->
                      Mc.Dedup.sweep_prefix ~faults:s.faults ~omit_budget:1
                        ~policy:Mc.Serial.Prefixes ~algo:p.algo
                        ~config:p.config ~proposals ~prefix:[ first ] ())
                in
                led.shard_ns <- (now_ns () - t0) :: led.shard_ns;
                led.shard_promoted <-
                  led.shard_promoted
                  +. ((Gc.quick_stat ()).Gc.promoted_words -. p0);
                ( merge_timed led (fun () -> Mc.Dedup.combine acc r),
                  Mc.Dedup.merge_stats stats st ))
              (Mc.Exhaustive.empty, Mc.Dedup.zero_stats)
              firsts)
      in
      ( merge_timed led (fun () -> Mc.Exhaustive.merge acc r),
        Mc.Dedup.merge_stats stats st ))
    (Mc.Exhaustive.empty, Mc.Dedup.zero_stats)
    p.assignments

(* The position in [binary_assignments] order of the assignment a dedup
   workload's unreduced replay sample covers: half the processes propose
   1. Every assignment has the same choice tree, so per-call costs from
   this one subtree stand for the arena and leaf layers of the workload. *)
let sample_assignment p = List.length p.assignments / 2

let traced_sweeps led spans prepared =
  List.concat_map
    (fun p ->
      let s = p.sweep in
      let who = Printf.sprintf "%s n=%d t=%d" s.label s.n s.t in
      let reference, ref_stats =
        match p.last with Some r -> r | None -> run_sweep p
      in
      Obs.Span.with_ spans who (fun () ->
          let t0 = now_ns () in
          match s.dedup with
          | None ->
              let r = replay_sweep led spans p in
              let dt = now_ns () - t0 in
              led.pass_ns <- led.pass_ns + dt;
              led.pass_runs <- led.pass_runs + r.runs;
              led.replay_ns <- led.replay_ns + dt;
              led.edges <- led.replay_edges;
              led.leaves <- led.replay_leaves;
              (if Mc.Codec.result_equal r reference then []
               else [ who ^ ": traced replay differs from the sweep" ])
              @ check_sweep s r None
          | Some _ ->
              let r, st = shard_dedup led spans p in
              led.pass_ns <- led.pass_ns + (now_ns () - t0);
              led.pass_runs <- led.pass_runs + r.runs;
              led.lookups <- led.lookups + st.hits + st.misses;
              led.hits <- led.hits + st.hits;
              led.entries <- led.entries + st.entries;
              led.edges <- led.edges + st.edges;
              led.snapshots <- led.snapshots + st.snapshots;
              led.restores <- led.restores + st.restores;
              led.leaves <- led.leaves + r.distinct_runs;
              (* Per-call arena and leaf costs come from an unreduced
                 replay of one assignment; its counts stay out of the
                 ledger, which describes the dedup pass. *)
              let sample = ledger () in
              let proposals = List.nth p.assignments (sample_assignment p) in
              let t1 = now_ns () in
              let sr =
                Obs.Span.with_ spans "unreduced sample" (fun () ->
                    replay_assignment sample ~algo:p.algo ~faults:s.faults
                      ~config:p.config ~proposals)
              in
              led.replay_ns <- led.replay_ns + (now_ns () - t1);
              led.replay_edges <- led.replay_edges + sample.replay_edges;
              led.replay_leaves <- led.replay_leaves + sample.replay_leaves;
              led.menu_ns <- led.menu_ns + sample.menu_ns;
              led.step_ns <- led.step_ns + sample.step_ns;
              led.finish_ns <- led.finish_ns + sample.finish_ns;
              led.finish_rounds <- led.finish_rounds + sample.finish_rounds;
              led.check_ns <- led.check_ns + sample.check_ns;
              led.check_words <- led.check_words +. sample.check_words;
              let sample_who = who ^ " unreduced sample" in
              List.concat
                [
                  (if
                     Mc.Codec.result_equal r reference && Some st = ref_stats
                   then []
                   else [ who ^ ": folded shards differ from the sweep" ]);
                  check_sweep s r (Some st);
                  field sample_who "runs" sr.runs
                    (s.runs / List.length p.assignments);
                  field sample_who "crashed" (List.length sr.crashed) 0;
                  field sample_who "violations" (List.length sr.violations) 0;
                ]))
    prepared

let rounds_of = function
  | Fuzz.Outcome.Passed { rounds; _ } -> rounds
  | Fuzz.Outcome.Violated { round; _ } -> round
  | Fuzz.Outcome.Crashed e -> Round.to_int e.Sim.Engine.round
  | Fuzz.Outcome.Raised _ -> 0
  | Fuzz.Outcome.Budget_exhausted { fuel; _ } -> fuel

(* The traced counterpart of a campaign, with the same monitor, fuel and
   shrink settings: the generator, [Harness.run_contained] per schedule
   and [Shrink.shrink] per failure, each timed. Its findings must match
   the untraced campaign's. *)
let traced_campaign led spans p ~seed =
  let c = p.campaign in
  let who = Printf.sprintf "%s n=%d t=%d fuzz" c.clabel c.cn c.ct in
  let reference =
    match p.last_report with Some r -> r | None -> run_campaign p ~seed
  in
  let t0 = now_ns () in
  let off = run_campaign ~monitor:false p ~seed in
  let t1 = now_ns () in
  let on = run_campaign p ~seed in
  led.monitor_off_ns <- led.monitor_off_ns + (t1 - t0);
  led.monitor_on_ns <- led.monitor_on_ns + (now_ns () - t1);
  Obs.Span.with_ spans who (fun () ->
      let t0 = now_ns () in
      let schedules =
        Obs.Span.with_ spans "gen" (fun () -> generate c p.cconfig ~seed)
      in
      let t1 = now_ns () in
      led.gen_ns <- led.gen_ns + (t1 - t0);
      led.gen_schedules <- led.gen_schedules + Array.length schedules;
      let findings = ref [] in
      Obs.Span.with_ spans "runs" (fun () ->
          Array.iteri
            (fun index schedule ->
              let t0 = now_ns () in
              let outcome =
                Fuzz.Harness.run_contained ~algo:p.calgo ~config:p.cconfig
                  ~proposals:p.proposals schedule
              in
              let dt = now_ns () - t0 in
              led.harness_ns <- led.harness_ns + dt;
              led.harness_us <- (float_of_int dt /. 1e3) :: led.harness_us;
              led.harness_rounds <- led.harness_rounds + rounds_of outcome;
              if Fuzz.Outcome.is_failure outcome then begin
                let shrunk =
                  if c.shrink then (
                    let t0 = now_ns () in
                    let r =
                      Obs.Span.with_ spans
                        (Printf.sprintf "shrink %d" index)
                        (fun () ->
                          Fuzz.Shrink.shrink ~algo:p.calgo ~config:p.cconfig
                            ~proposals:p.proposals schedule)
                    in
                    led.shrink_ns <- led.shrink_ns + (now_ns () - t0);
                    r)
                  else None
                in
                (match shrunk with
                | Some r -> led.shrink_steps <- led.shrink_steps + r.steps
                | None -> ());
                findings := (index, shrunk) :: !findings
              end)
            schedules);
      let dt = now_ns () - t1 in
      led.pass_ns <- led.pass_ns + dt;
      led.replay_ns <- led.replay_ns + (now_ns () - t0);
      led.pass_runs <- led.pass_runs + Array.length schedules;
      led.findings <- led.findings + List.length !findings;
      let encode (r : Fuzz.Shrink.report option) =
        Option.map (fun (r : Fuzz.Shrink.report) -> Sim.Codec.encode r.schedule) r
      in
      let key (fs : Fuzz.Campaign.finding list) =
        List.map (fun (f : Fuzz.Campaign.finding) -> (f.index, encode f.shrunk)) fs
      in
      let traced =
        List.rev_map (fun (i, s) -> (i, encode s)) !findings
      in
      List.concat
        [
          (if traced = key reference.findings then []
           else [ who ^ ": traced findings differ from the campaign" ]);
          (if key off.findings = key on.findings then []
           else [ who ^ ": findings differ with the monitor off" ]);
          check_campaign p ~seed on;
        ])

(* ------------------------------------------------------------------ *)
(* Output                                                               *)

let json_of_pass (p : pass) =
  Obs.Json.Obj
    [
      ("kind", Obs.Json.String p.kind);
      ("runs", Obs.Json.Int p.runs);
      ("failures", Obs.Json.Int p.failures);
      ("mismatches", Obs.Json.List (List.map (fun s -> Obs.Json.String s) p.mismatches));
      ("wall_s", Obs.Json.Float (ns_to_s p.wall_ns));
      ("minor_words", Obs.Json.Float p.minor_words);
      ("promoted_words", Obs.Json.Float p.promoted_words);
      ("minor_collections", Obs.Json.Int p.minor_collections);
      ("major_collections", Obs.Json.Int p.major_collections);
    ]

let json_of_ledger (l : ledger) =
  let i x = Obs.Json.Int x and s ns = Obs.Json.Float (ns_to_s ns) in
  Obs.Json.Obj
    [
      ("pass_s", s l.pass_ns);
      ("pass_runs", i l.pass_runs);
      ("edges", i l.edges);
      ("snapshots", i l.snapshots);
      ("restores", i l.restores);
      ("leaves", i l.leaves);
      ("lookups", i l.lookups);
      ("hits", i l.hits);
      ("entries", i l.entries);
      ("shard_s", Obs.Json.List (List.rev_map s l.shard_ns));
      ("shard_promoted_words", Obs.Json.Float l.shard_promoted);
      ("merge_s", s l.merge_ns);
      ("replay_s", s l.replay_ns);
      ("replay_edges", i l.replay_edges);
      ("replay_leaves", i l.replay_leaves);
      ("menu_s", s l.menu_ns);
      ("step_s", s l.step_ns);
      ("finish_s", s l.finish_ns);
      ("finish_rounds", i l.finish_rounds);
      ("check_s", s l.check_ns);
      ("check_words", Obs.Json.Float l.check_words);
      ("gen_s", s l.gen_ns);
      ("gen_schedules", i l.gen_schedules);
      ("harness_s", s l.harness_ns);
      ("harness_rounds", i l.harness_rounds);
      ("harness_us", Obs.Json.List (List.rev_map (fun x -> Obs.Json.Float x) l.harness_us));
      ("monitor_on_s", s l.monitor_on_ns);
      ("monitor_off_s", s l.monitor_off_ns);
      ("shrink_s", s l.shrink_ns);
      ("shrink_steps", i l.shrink_steps);
      ("findings", i l.findings);
    ]

(* ------------------------------------------------------------------ *)
(* Main                                                                 *)

let usage =
  "bench.exe --workload sweep-none|sweep-omit|fuzz --seed N \
   --seconds N --trace 0|1 [--spans FILE]"

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 30
  and trace = ref 0 and spans_file = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N fuzz schedule seed (sweeps take none)");
      ("--seconds", Arg.Set_int seconds, "N length of the timed window");
      ("--trace", Arg.Set_int trace, "0|1 run the traced pass");
      ("--spans", Arg.Set_string spans_file, "FILE write coarse spans here");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match workload_of_name !workload with
    | Some w -> w
    | None ->
        prerr_endline ("unknown workload " ^ !workload ^ "\n" ^ usage);
        exit 2
  in
  let seed = !seed in
  let st = { setup_ns = []; menu_ns = []; menu_nodes = 0 } in
  let prepared = sample_setup st w ~seed in
  let pass kind =
    match prepared with
    | `Sweeps prepared -> measure kind (sweeps_pass prepared)
    | `Fuzz prepared -> measure kind (fuzz_pass prepared ~seed)
  in
  let warmup = pass "warmup" in
  let window = !seconds * 1_000_000_000 in
  let started = now_ns () in
  let first = pass "timed" in
  (* The heap's top after set-up, warm-up and one timed pass: later passes
     repeat the same work, and their number depends on the machine. *)
  let top_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let rec timed acc =
    ignore (sample_setup st w ~seed);
    if now_ns () - started >= window then List.rev acc
    else begin
      shift_minor_heap (List.length acc);
      timed (pass "timed" :: acc)
    end
  in
  let timed = timed [ first ] in
  let traced =
    if !trace = 0 then None
    else begin
      let led = ledger () in
      let spans = Obs.Span.recorder () in
      let p =
        measure "traced" (fun () ->
            let mismatches =
              match prepared with
              | `Sweeps prepared -> traced_sweeps led spans prepared
              | `Fuzz prepared ->
                  List.concat_map
                    (fun p -> traced_campaign led spans p ~seed)
                    prepared
            in
            (led.pass_runs, 0, mismatches))
      in
      if !spans_file <> "" then
        Obs.Artifact.write_string !spans_file
          (Obs.Chrome.spans_to_string (Obs.Span.records spans));
      Some (p, led)
    end
  in
  let passes =
    (warmup :: timed) @ match traced with Some (p, _) -> [ p ] | None -> []
  in
  let s ns = Obs.Json.Float (ns_to_s ns) in
  let json =
    Obs.Json.Obj
      ([
         ("workload", Obs.Json.String !workload);
         ("seed", Obs.Json.Int seed);
         ("ocaml_version", Obs.Json.String Sys.ocaml_version);
         ("word_bytes", Obs.Json.Int (Sys.word_size / 8));
         ("setup_s", Obs.Json.List (List.rev_map s st.setup_ns));
         ("menu_build_s", Obs.Json.List (List.rev_map s st.menu_ns));
         ("menu_nodes", Obs.Json.Int st.menu_nodes);
         ("passes", Obs.Json.List (List.map json_of_pass passes));
         ("top_heap_words", Obs.Json.Int top_heap_words);
       ]
      @
      match traced with
      | Some (_, led) -> [ ("ledger", json_of_ledger led) ]
      | None -> [])
  in
  print_endline (Obs.Json.to_string json)
