open Kernel

type stats = {
  hits : int;
  misses : int;
  entries : int;
  edges : int;
  spilled : int;
  snapshots : int;
  restores : int;
}

let zero_stats =
  {
    hits = 0;
    misses = 0;
    entries = 0;
    edges = 0;
    spilled = 0;
    snapshots = 0;
    restores = 0;
  }

let merge_stats a b =
  {
    hits = a.hits + b.hits;
    misses = a.misses + b.misses;
    entries = a.entries + b.entries;
    edges = a.edges + b.edges;
    spilled = a.spilled + b.spilled;
    snapshots = a.snapshots + b.snapshots;
    restores = a.restores + b.restores;
  }

let pp_stats ppf s =
  let lookups = s.hits + s.misses in
  Format.fprintf ppf "%d/%d subtrees from table (%.0f%%), %d entries" s.hits
    lookups
    (100. *. (float_of_int s.hits /. float_of_int (max 1 lookups)))
    s.entries;
  if s.spilled > 0 then Format.fprintf ppf " (+%d spilled)" s.spilled;
  if s.snapshots > 0 then
    Format.fprintf ppf "; %d arena snapshots, %d restores" s.snapshots
      s.restores

(* Combine a later sibling subtree into the accumulator, preserving the
   exact list orders of the one-pass serial DFS: the serial sweep conses
   violations and crashed runs as it meets them, so its final lists are the
   reverse of enumeration order — later subtrees must land in front.
   [Exhaustive.merge] gets every scalar right (including keeping the first
   strictly-maximal witness, which is what the one-pass "update on [>]"
   produces). *)
let combine acc child =
  let m = Exhaustive.merge acc child in
  {
    m with
    Exhaustive.violations = child.Exhaustive.violations @ acc.Exhaustive.violations;
    crashed = child.Exhaustive.crashed @ acc.Exhaustive.crashed;
  }

(* Prepend [choice] to every choice list of a subtree fragment, lifting
   choices stored relative to a node into the parent's frame. *)
let lift choice (frag : Exhaustive.result) =
  {
    frag with
    Exhaustive.max_witness = Option.map (List.cons choice) frag.max_witness;
    violations =
      List.map (fun (cs, vs) -> (choice :: cs, vs)) frag.Exhaustive.violations;
    crashed =
      List.map
        (fun (c : Exhaustive.crashed_run) ->
          { c with choices = choice :: c.choices })
        frag.Exhaustive.crashed;
  }

let sweep_prefix ?(faults = Sim.Model.Crash_only) ?omit_budget ?deadline
    ?(policy = Serial.Prefixes) ?horizon ?prof ?(spans = Obs.Span.disabled)
    ?table_cap ?spill_dir ?menu ~algo:(Sim.Algorithm.Packed (module A))
    ~config ~proposals ~prefix () =
  let module E = Sim.Engine.Make (A) in
  let horizon = Option.value horizon ~default:(Config.t config + 2) in
  let n = Config.n config in
  let depth0 = horizon - List.length prefix in
  if depth0 < 0 then
    invalid_arg "Dedup.sweep_prefix: prefix longer than the horizon";
  let max_rounds = Sim.Engine.round_bound config ~horizon ~gst:1 in
  let menu =
    match menu with
    | Some m -> m
    | None -> Menu.create ~faults ?omit_budget ~policy config
  in
  let check = Exhaustive.deadline_check deadline in
  let hits = ref 0 and misses = ref 0 and edges = ref 0 in
  (* The memo key. [k_alive] and [k_left] are NOT derivable from the
     fingerprint: the adversary may "crash" an already-halted process,
     spending budget (and shrinking its victim pool) without changing any
     engine-visible state — two such histories share a fingerprint but face
     different futures. The same holds for the omitter sets and the
     remaining omission budget: they gate the legal choices below a node,
     and at leaves the declared omitters decide the verdict. [k_depth] pins
     the remaining horizon (hence the round, for [Ok] states). A poisoned
     ([Error]) subtree is engine-free — its leaves depend only on the
     choice tree below and the error — so it memoises on the structured
     error instead of a fingerprint.

     The fields are mutable only so one probe key can be refreshed in
     place per lookup (mutability is invisible to structural [( = )] and
     [Hashtbl.hash]); stored keys are immutable clones taken before the
     subtree is explored. *)
  let module Key = struct
    type state_key =
      | K_ok of E.Arena.fingerprint
      | K_err of Sim.Engine.step_error

    type t = {
      mutable k_depth : int;
      mutable k_left : int;
      mutable k_alive : Bitset.Big.t;
      mutable k_send : Bitset.Big.t;
      mutable k_recv : Bitset.Big.t;
      mutable k_omit_left : int;
      mutable k_state : state_key;
    }
  end in
  let module Tbl = Hashtbl.Make (struct
    type t = Key.t

    (* [compare]-based equality, not [( = )]: the runtime's total-order
       comparison short-circuits on physically equal subterms, which the
       arena produces constantly — snapshot/restore shares state records
       across branches, so a probe against the matching stored key walks
       pointers, not structure. [( = )] must descend even through shared
       records (NaN forbids the shortcut); keys are float-free pure data,
       so the two agree on every key this table can hold. *)
    let equal a b = Stdlib.compare (a : t) b = 0

    (* The default [Hashtbl.hash] reads only a bounded prefix of the key,
       so distinct fingerprints can share buckets — but [equal] resolves
       every collision structurally, so a shallow hash costs lookups time,
       never soundness. Measured on the n = 5 sweeps here it beats
       [hash_param 64 128]: the depth/budget/alive fields plus the first
       few process states already discriminate well, and deep hashing of
       large algorithm states (e.g. [A_{t+2}]'s) dominated the win. *)
    let hash (k : t) = Hashtbl.hash k
  end) in
  let tbl = Tbl.create 1024 in
  (* Disk overflow: once the in-memory table reaches [table_cap], new
     entries spill to an append-only store instead (or, with no
     [spill_dir], are simply dropped — bounded memory, fewer future hits).
     Marshalled with [No_sharing] the bytes of equal keys are equal, since
     the table's equality is structural; fragments and keys are pure data
     (see the fingerprint and {!Algorithm.S} docs). *)
  let spill = ref None in
  let spilled = ref 0 in
  let marshal v = Marshal.to_string v [ Marshal.No_sharing ] in
  let spill_find key =
    match !spill with
    | None -> None
    | Some s ->
        Option.map
          (fun b -> (Marshal.from_string b 0 : Exhaustive.result))
          (Spill.find s ~key:(marshal key))
  in
  let table_store key frag =
    match table_cap with
    | Some cap when Tbl.length tbl >= cap -> (
        match spill_dir with
        | Some dir ->
            let s =
              match !spill with
              | Some s -> s
              | None ->
                  let s = Spill.create ~dir in
                  spill := Some s;
                  s
            in
            Spill.add s ~key:(marshal key) ~data:(marshal frag);
            incr spilled
        | None -> ())
    | _ -> Tbl.add tbl key frag
  in
  let arena = E.Arena.create config ~proposals in
  let step_arena cplan =
    match prof with
    | None -> E.Arena.step arena cplan
    | Some a -> Obs.Prof.measure a (fun () -> E.Arena.step arena cplan)
  in
  (* One probe key, refreshed in place per lookup: [probe_ok] wraps the
     arena's reusable probe fingerprint, so a warm lookup allocates
     nothing at all. *)
  let probe_ok = Key.K_ok (E.Arena.probe_fingerprint arena) in
  let probe =
    {
      Key.k_depth = 0;
      k_left = 0;
      k_alive = Bitset.Big.empty;
      k_send = Bitset.Big.empty;
      k_recv = Bitset.Big.empty;
      k_omit_left = 0;
      k_state = probe_ok;
    }
  in
  let set_probe depth (node : Menu.node) err =
    (match err with
    | None ->
        ignore (E.Arena.probe_fingerprint arena : E.Arena.fingerprint);
        probe.Key.k_state <- probe_ok
    | Some e -> probe.Key.k_state <- Key.K_err e);
    (* Leaves memoise on the fingerprint and the declared omitter sets:
       with no choices left, the remaining budgets and victim pool cannot
       influence the run — but the omitter sets still decide the verdict
       ([finish]'s trace is judged against the fault-free set). Collapsing
       the budgets buys hits across histories that differ only in budget
       spent on already-halted victims. *)
    if depth = 0 then (
      probe.Key.k_depth <- 0;
      probe.Key.k_left <- 0;
      probe.Key.k_alive <- Bitset.Big.empty;
      probe.Key.k_omit_left <- 0)
    else (
      probe.Key.k_depth <- depth;
      probe.Key.k_left <- node.Menu.adv.Serial.crashes_left;
      probe.Key.k_alive <- node.Menu.aliveb;
      probe.Key.k_omit_left <- node.Menu.adv.Serial.omit_left);
    probe.Key.k_send <- node.Menu.sendb;
    probe.Key.k_recv <- node.Menu.recvb
  in
  (* An immutable snapshot of the probe, safe to store: the scalar fields
     and bitsets are copied/shared, the fingerprint deep-copied out of the
     arena's loaned buffers. Taken BEFORE the subtree below is explored —
     recursive lookups overwrite the probe. *)
  let clone_probe () =
    {
      Key.k_depth = probe.Key.k_depth;
      k_left = probe.Key.k_left;
      k_alive = probe.Key.k_alive;
      k_send = probe.Key.k_send;
      k_recv = probe.Key.k_recv;
      k_omit_left = probe.Key.k_omit_left;
      k_state =
        (match probe.Key.k_state with
        | Key.K_ok fp -> Key.K_ok (E.Arena.copy_fingerprint fp)
        | Key.K_err _ as e -> e);
    }
  in
  (* Only table misses reach [leaf], so spans and probes record exactly the
     distinct work done — answered-from-table subtrees cost (and show)
     nothing. *)
  let leaf (node : Menu.node) err =
    match err with
    | Some error -> Exhaustive.add_crashed Exhaustive.empty ~choices:[] ~error
    | None ->
        if Obs.Span.enabled spans then Obs.Span.enter spans "run";
        let frag =
          match
            E.Arena.finish ~max_rounds ?prof ~schedule:node.Menu.leaf_schedule
              arena
          with
          | trace -> Exhaustive.add_run Exhaustive.empty ~choices:[] ~trace
          | exception Sim.Engine.Step_error error ->
              Exhaustive.add_crashed Exhaustive.empty ~choices:[] ~error
        in
        if Obs.Span.enabled spans then Obs.Span.exit spans;
        frag
  in
  (* Returns the subtree's result with choice lists relative to the node
     (the caller lifts them); [distinct_runs] counts the leaves this call
     actually evaluated, so a table hit contributes 0.

     Branch discipline mirrors [Exhaustive.sweep_prefix]: one snapshot per
     expanded node, taken before the first child and restored before every
     later sibling; the last child leaves the arena wherever it ran to
     (end of a leaf run, or mid-round after a raise) and the parent's own
     snapshot covers the residue. Poisoned ([Some err]) subtrees never
     touch the arena. *)
  let rec children depth (node : Menu.node) err =
    let acc = ref Exhaustive.empty in
    let k = Array.length node.Menu.choices in
    (match err with
    | Some _ ->
        for i = 0 to k - 1 do
          acc :=
            combine !acc
              (lift node.Menu.choices.(i)
                 (explore (depth - 1) (Menu.child menu node i) err))
        done
    | None ->
        E.Arena.save arena;
        for i = 0 to k - 1 do
          if i > 0 then E.Arena.restore arena;
          incr edges;
          let err' =
            try
              step_arena node.Menu.plans.(i);
              None
            with Sim.Engine.Step_error e -> Some e
          in
          acc :=
            combine !acc
              (lift node.Menu.choices.(i)
                 (explore (depth - 1) (Menu.child menu node i) err'))
        done;
        E.Arena.drop arena);
    !acc
  and explore depth node err =
    if depth = 0 then check ();
    set_probe depth node err;
    match Tbl.find_opt tbl probe with
    | Some frag ->
        incr hits;
        { frag with Exhaustive.distinct_runs = 0 }
    | None -> (
        match spill_find probe with
        | Some frag ->
            incr hits;
            { frag with Exhaustive.distinct_runs = 0 }
        | None ->
            incr misses;
            let key = clone_probe () in
            let frag =
              if depth = 0 then leaf node err else children depth node err
            in
            table_store key frag;
            frag)
  in
  (* Replay the prefix once, into the arena; a [Step_error] on a prefix
     round poisons the whole subtree below. *)
  let root_err = ref None in
  List.iter
    (fun choice ->
      match !root_err with
      | Some _ -> ()
      | None -> (
          incr edges;
          let cplan =
            Sim.Schedule.compile_plan ~n (Serial.plan_of config choice)
          in
          try step_arena cplan
          with Sim.Engine.Step_error e -> root_err := Some e))
    prefix;
  let root_node =
    Menu.node_of menu
      (List.fold_left Serial.advance
         (Serial.initial ?omit_budget ~faults config)
         prefix)
  in
  let frag, expired =
    Fun.protect
      ~finally:(fun () ->
        match !spill with Some s -> Spill.close s | None -> ())
      (fun () ->
        match explore depth0 root_node !root_err with
        | frag -> (frag, false)
        | exception Exhaustive.Expired -> (Exhaustive.empty, true))
  in
  let result =
    { (List.fold_right lift prefix frag) with Exhaustive.expired }
  in
  ( result,
    {
      hits = !hits;
      misses = !misses;
      entries = Tbl.length tbl;
      edges = !edges;
      spilled = !spilled;
      snapshots = E.Arena.snapshots arena;
      restores = E.Arena.restores arena;
    } )

(* One fresh table per first-round subtree — the granularity of a fixed
   scope's {!Sweep} task, so a reduced sweep is bit-identical on every
   field {e including} [distinct_runs] and the stats, whatever the
   executor. Cross-subtree hits at the root are the price; below round 1
   is where the state space actually converges. *)
let first_choices ?(faults = Sim.Model.Crash_only) ?omit_budget
    ?(policy = Serial.Prefixes) config =
  Serial.initial ?omit_budget ~faults config
  |> Serial.adversary_choices ~policy ~faults

let sweep_sharded ?(faults = Sim.Model.Crash_only) ?omit_budget ?deadline
    ?(policy = Serial.Prefixes) ?horizon ?prof ?(spans = Obs.Span.disabled)
    ?table_cap ?spill_dir ~menu ~algo ~config ~proposals () =
  let horizon = Option.value horizon ~default:(Config.t config + 2) in
  let firsts = first_choices ~faults ?omit_budget ~policy config in
  List.fold_left
    (fun (acc, stats) first ->
      let subtree () =
        if acc.Exhaustive.expired then (Exhaustive.empty, zero_stats)
        else
          sweep_prefix ~faults ?omit_budget ?deadline ~policy ~horizon ?prof
            ~spans ?table_cap ?spill_dir ~menu ~algo ~config ~proposals
            ~prefix:[ first ] ()
      in
      let r, s =
        if Obs.Span.enabled spans then
          Obs.Span.with_ spans
            (Format.asprintf "shard %a" Serial.pp_choice first)
            subtree
        else subtree ()
      in
      (combine acc r, merge_stats stats s))
    (Exhaustive.empty, zero_stats)
    firsts

(* The per-assignment task of a binary dedup {!Sweep}, folded in
   assignment order over one shared menu, as a single domain of {!Sweep}
   runs it. *)
let sweep_binary ?(faults = Sim.Model.Crash_only) ?omit_budget
    ?(policy = Serial.Prefixes) ?horizon ~algo ~config () =
  let menu = Menu.create ~faults ?omit_budget ~policy config in
  List.fold_left
    (fun (acc, stats) proposals ->
      let r, s =
        sweep_sharded ~faults ?omit_budget ~policy ?horizon ~menu ~algo
          ~config ~proposals ()
      in
      (Exhaustive.merge acc r, merge_stats stats s))
    (Exhaustive.empty, zero_stats)
    (Exhaustive.binary_assignments config)
