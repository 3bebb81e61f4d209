open Kernel
module Int_map = Map.Make (Int)

type step_error = {
  algorithm : string;
  pid : Pid.t;
  round : Round.t;
  reason : string;
}

exception Step_error of step_error

let pp_step_error ppf e =
  Format.fprintf ppf "%s: %a failed in round %d: %s" e.algorithm Pid.pp e.pid
    (Round.to_int e.round) e.reason

let () =
  Printexc.register_printer (function
    | Step_error e -> Some (Format.asprintf "Engine.Step_error (%a)" pp_step_error e)
    | _ -> None)

(* Generous: room for the schedule itself, the asynchronous prefix, and a
   full rotation of coordinator phases after gst for the slowest algorithm
   (4 rounds per phase, up to n phases), plus the t+3 framing of A_{t+2}. *)
let round_bound config ~horizon ~gst =
  horizon + gst + (5 * (Config.n config + 2)) + Config.t config + 10

let default_max_rounds config schedule =
  round_bound config ~horizon:(Schedule.horizon schedule)
    ~gst:(Round.to_int (Schedule.gst schedule))

module Make (A : Algorithm.S) = struct
  let fail ~pid ~round reason =
    raise (Step_error { algorithm = A.name; pid; round; reason })

  (* The containment boundary: any exception the algorithm's step callbacks
     raise is rewrapped with process and round context so sweeps and fuzz
     campaigns can record it as a per-run outcome. Resource exhaustion and
     already-structured errors pass through untouched. *)
  let send_guarded st ~pid round =
    try A.on_send st round with
    | (Step_error _ | Stack_overflow | Out_of_memory) as e -> raise e
    | exn -> fail ~pid ~round ("on_send raised " ^ Printexc.to_string exn)

  let receive_guarded st ~pid round inbox =
    try A.on_receive st round inbox with
    | (Step_error _ | Stack_overflow | Out_of_memory) as e -> raise e
    | exn -> fail ~pid ~round ("on_receive raised " ^ Printexc.to_string exn)

  type proc =
    | Running of A.state
    | Done of Round.t * A.state  (* halted (returned) in the given round *)
    | Crashed of Round.t

  type sys = {
    config : Config.t;
    next_round : Round.t;
    procs : proc Pid.Map.t;
    pending : A.msg Envelope.t list Pid.Map.t Int_map.t;
        (* delivery round -> receiver -> envelopes *)
    rev_decisions : Trace.decision list;
    rev_records : Trace.round_record list;
    recording : bool;
    sink : Obs.Sink.t;
  }

  let start ?(sink = Obs.Sink.noop) config ~proposals =
    let n = Config.n config in
    let procs =
      List.fold_left
        (fun acc p ->
          match Pid.Map.find_opt p proposals with
          | Some v -> Pid.Map.add p (Running (A.init config p v)) acc
          | None ->
              invalid_arg
                (Format.asprintf "Engine.start: no proposal for %a" Pid.pp p))
        Pid.Map.empty (Pid.all ~n)
    in
    {
      config;
      next_round = Round.first;
      procs;
      pending = Int_map.empty;
      rev_decisions = [];
      rev_records = [];
      recording = false;
      sink;
    }

  let next_round sys = sys.next_round
  let decisions sys = List.rev sys.rev_decisions

  let state_of sys p =
    match Pid.Map.find_opt p sys.procs with
    | Some (Running st) | Some (Done (_, st)) -> Some st
    | Some (Crashed _) | None -> None

  let alive sys =
    Pid.Map.fold
      (fun p proc acc -> match proc with Running _ -> p :: acc | _ -> acc)
      sys.procs []
    |> List.rev

  let crashed sys =
    Pid.Map.fold
      (fun p proc acc ->
        match proc with Crashed r -> (p, r) :: acc | _ -> acc)
      sys.procs []
    |> List.rev

  let all_halted sys =
    Pid.Map.for_all
      (fun _ proc -> match proc with Running _ -> false | _ -> true)
      sys.procs

  let enqueue pending ~deliver_round ~dst env =
    let k = Round.to_int deliver_round in
    let per_dst =
      Option.value (Int_map.find_opt k pending) ~default:Pid.Map.empty
    in
    let queue = Option.value (Pid.Map.find_opt dst per_dst) ~default:[] in
    Int_map.add k (Pid.Map.add dst (env :: queue) per_dst) pending

  let step sys (plan : Schedule.plan) =
    let config = sys.config in
    let n = Config.n config in
    (* One O(n^2) compile replaces the per-copy [List.exists]/[find_opt]
       scans over [plan.lost]/[plan.delayed]; quiet plans compile for
       free. *)
    let cplan = Schedule.compile_plan ~n plan in
    let round = sys.next_round in
    let sink = sys.sink in
    (* [observing] guards every event construction: with the no-op sink the
       hot path performs one boolean test per site and allocates nothing. *)
    let observing = Obs.Sink.enabled sink in
    if observing then Obs.Sink.emit sink (Obs.Event.Round_start { round });
    (* Send phase: every running process broadcasts. *)
    let senders =
      Pid.Map.fold
        (fun p proc acc ->
          match proc with Running st -> (p, st) :: acc | _ -> acc)
        sys.procs []
      |> List.rev
    in
    let bytes_sent = ref 0 in
    let pending =
      List.fold_left
        (fun pending (src, st) ->
          let payload = send_guarded st ~pid:src round in
          if sys.recording || observing then begin
            let bytes = n * (Algorithm.header_bytes + A.wire_size payload) in
            bytes_sent := !bytes_sent + bytes;
            if observing then
              Obs.Sink.emit sink
                (Obs.Event.Send { src; round; copies = n; bytes })
          end;
          let env = Envelope.make ~src ~sent:round payload in
          List.fold_left
            (fun pending dst ->
              if Pid.equal src dst then
                enqueue pending ~deliver_round:round ~dst env
              else
                match Schedule.compiled_fate cplan ~src ~dst with
                | Schedule.Same_round ->
                    enqueue pending ~deliver_round:round ~dst env
                | Schedule.Delayed_until until ->
                    if observing then
                      Obs.Sink.emit sink
                        (Obs.Event.Delay { src; dst; round; until });
                    enqueue pending ~deliver_round:until ~dst env
                | Schedule.Lost ->
                    if observing then
                      Obs.Sink.emit sink (Obs.Event.Drop { src; dst; round });
                    pending)
            pending (Pid.all ~n))
        sys.pending senders
    in
    (* Crashes take effect before the receive phase: a process crashing in
       round k does not complete round k. *)
    let procs =
      List.fold_left
        (fun procs victim ->
          match Pid.Map.find_opt victim procs with
          | Some (Running _) ->
              if observing then
                Obs.Sink.emit sink (Obs.Event.Crash { pid = victim; round });
              Pid.Map.add victim (Crashed round) procs
          | Some (Done _) | Some (Crashed _) | None -> procs)
        sys.procs plan.Schedule.crashes
    in
    (* Receive phase. *)
    let due =
      Option.value
        (Int_map.find_opt (Round.to_int round) pending)
        ~default:Pid.Map.empty
    in
    let pending = Int_map.remove (Round.to_int round) pending in
    let deliveries = ref [] in
    let new_decisions = ref [] in
    let procs =
      Pid.Map.mapi
        (fun p proc ->
          match proc with
          | Crashed _ | Done _ -> proc
          | Running st ->
              let inbox =
                Option.value (Pid.Map.find_opt p due) ~default:[]
                |> List.sort Envelope.compare_src
              in
              if sys.recording then
                List.iter
                  (fun (e : _ Envelope.t) ->
                    deliveries := (e.src, p, e.sent) :: !deliveries)
                  inbox;
              if observing then
                List.iter
                  (fun (e : _ Envelope.t) ->
                    Obs.Sink.emit sink
                      (Obs.Event.Deliver
                         { src = e.src; dst = p; sent = e.sent; round }))
                  inbox;
              let before = A.decision st in
              let st' = receive_guarded st ~pid:p round inbox in
              let after = A.decision st' in
              (match (before, after) with
              | Some v, Some w when not (Value.equal v w) ->
                  fail ~pid:p ~round
                    (Format.asprintf "changed its decision from %a to %a"
                       Value.pp v Value.pp w)
              | Some _, None -> fail ~pid:p ~round "retracted its decision"
              | None, Some v ->
                  if observing then
                    Obs.Sink.emit sink
                      (Obs.Event.Decide { pid = p; round; value = v });
                  new_decisions :=
                    { Trace.pid = p; round; value = v } :: !new_decisions
              | None, None | Some _, Some _ -> ());
              if A.halted st' then begin
                if observing then
                  Obs.Sink.emit sink (Obs.Event.Halt { pid = p; round });
                Done (round, st')
              end
              else Running st')
        procs
    in
    let new_decisions =
      List.sort
        (fun (a : Trace.decision) b -> Pid.compare a.pid b.pid)
        !new_decisions
    in
    let record =
      if sys.recording then
        [
          {
            Trace.round;
            senders = List.map fst senders;
            crashed_now = plan.Schedule.crashes;
            delivered = List.rev !deliveries;
            bytes_sent = !bytes_sent;
            new_decisions;
          };
        ]
      else []
    in
    {
      sys with
      next_round = Round.succ round;
      procs;
      pending;
      rev_decisions = List.rev_append new_decisions sys.rev_decisions;
      rev_records = record @ sys.rev_records;
    }

  (* ---------------------------------------------------------------- *)
  (* The mutable arena.

     The one execution core behind the record-free [run], the fuzz
     harness and every model-checker sweep. Processes live in a status
     slab and a state array mutated in place, and each sender owns one
     reusable envelope cell whose [sent]/[payload] are refreshed every
     round instead of reallocated (the {!Envelope} loan contract): with an
     algorithm whose steady state is allocation-free, a steady quiet round
     allocates nothing, and the inbox spine is relinked only when the
     running set changes. A DFS over adversary choices mutates one arena
     and rewinds it on backtrack with explicit branch-point snapshots,
     instead of forking an immutable system value per round (≈140 minor
     words a round, DESIGN §16).

     Snapshots are copy-on-branch, not an undo log: a snapshot is two
     blits (n status bytes, n state words) plus four scalar stores into a
     preallocated slot, independent of how much the subtree below mutates,
     while an undo log costs a heap cell per mutation on the hot path —
     exactly the allocation this module exists to remove (measurements in
     DESIGN §16). Slots live in a stack grown once to the DFS depth and
     reused for the rest of the sweep.

     Round semantics are those of the recording engine's [step] above:
     [on_send] in ascending pid order from the pre-crash states, crashes
     before the receive phase, an ascending-pid receive phase over inboxes
     sorted by sender, the same decision-stability errors and the same
     decision-list shape. The spine cells are loaned to receivers within a
     round only; delayed envelopes are always fresh and never mutated, so
     fingerprints may reference them across rounds. *)

  module Arena = struct
    let st_running = '\000'
    let st_done = '\001'
    let st_crashed = '\002'

    (* A reusable branch-point slot. [sn_status]/[sn_states] are owned
       buffers (blitted both ways); the decision list and late map are
       immutable values captured by pointer. Crash rounds are {e not}
       snapshotted: the status byte is authoritative, a crash-round slot is
       written exactly when [st_running -> st_crashed] fires, and a stale
       value under a restored-to-running status is never read. *)
    type snap = {
      sn_status : Bytes.t;
      sn_states : A.state array;
      mutable sn_live : int;
      mutable sn_next : int;
      mutable sn_decisions : Trace.decision list;
      mutable sn_late : A.msg Envelope.t list Pid.Map.t Int_map.t;
    }

    type fingerprint = {
      fp_status : Bytes.t;  (* running / done / crashed per slot *)
      fp_states : A.state array;  (* non-running slots hold the filler *)
      mutable fp_late : (int * (int * A.msg Envelope.t list) list) list;
      mutable fp_decisions : Trace.decision list;
    }

    (* DFS branches revisit the same (status, fault) pairs constantly, so
       once an arena has taken a snapshot its spines and reduced inboxes
       are interned by status byte-string: after the first visit a faulty
       round performs two hash lookups ([Hashtbl.find] with a
       constant-constructor [Not_found] on miss — no [option] box) and
       allocates nothing. Sound because the cached lists are alternative
       cons-chains over the {e same} reusable cells, which are only ever
       refreshed in place, never replaced. A run that never branches never
       revisits a status, so it builds no tables. *)
    type tables = {
      spines : (Bytes.t, A.msg Envelope.t list) Hashtbl.t;
      lost : (Bytes.t, A.msg Envelope.t list) Hashtbl.t array;
          (* indexed by [sl_src - 1] *)
      dst_srcs :
        (Bitset.Big.t, (Bytes.t, A.msg Envelope.t list) Hashtbl.t) Hashtbl.t;
    }

    type t = {
      a_config : Config.t;
      a_proposals : Value.t Pid.Map.t;
      a_proposed : Value.t array;  (* [a_proposals]' values, for [judge] *)
      a_n : int;
      a_status : Bytes.t;  (* process [p] at byte [p - 1] *)
      a_states : A.state array;
      a_crash_round : int array;  (* meaningful only under [st_crashed] *)
      mutable a_live : int;
      mutable a_next : int;  (* next round to execute *)
      mutable a_decisions : Trace.decision list;  (* newest first *)
      mutable a_late : A.msg Envelope.t list Pid.Map.t Int_map.t;
      (* Spine: one reusable envelope cell per process, created at first
         use and refreshed in place each fast round; [a_spine] is the
         ascending list of the running cells, relinked only when the
         running set drifts from [a_spine_status]. *)
      a_cells : A.msg Envelope.t option array;
      mutable a_spine : A.msg Envelope.t list;
      a_spine_status : Bytes.t;
      mutable a_tables : tables option;  (* [None] until the first [save] *)
      mutable a_stack : snap array;
      mutable a_depth : int;
      mutable a_snapshots : int;
      mutable a_restores : int;
      a_filler : A.state;
      a_fp : fingerprint;  (* reusable probe buffers *)
    }

    let create config ~proposals =
      let n = Config.n config in
      let states =
        Array.init n (fun i ->
            let p = Pid.of_int (i + 1) in
            match Pid.Map.find_opt p proposals with
            | Some v -> A.init config p v
            | None ->
                invalid_arg
                  (Format.asprintf "Engine.Arena.create: no proposal for %a"
                     Pid.pp p))
      in
      let filler = states.(0) in
      {
        a_config = config;
        a_proposals = proposals;
        a_proposed = Array.of_list (List.map snd (Pid.Map.bindings proposals));
        a_n = n;
        a_status = Bytes.make n st_running;
        a_states = states;
        a_crash_round = Array.make n 0;
        a_live = n;
        a_next = 1;
        a_decisions = [];
        a_late = Int_map.empty;
        a_cells = Array.make n None;
        a_spine = [];
        a_spine_status = Bytes.make n '\255' (* never a valid status *);
        a_tables = None;
        a_stack = [||];
        a_depth = 0;
        a_snapshots = 0;
        a_restores = 0;
        a_filler = filler;
        a_fp =
          {
            fp_status = Bytes.make n st_running;
            fp_states = Array.make n filler;
            fp_late = [];
            fp_decisions = [];
          };
      }

    let next_round t = Round.of_int t.a_next
    let all_halted t = t.a_live = 0
    let decisions t = List.rev t.a_decisions
    let rev_decisions t = t.a_decisions
    let snapshots t = t.a_snapshots
    let restores t = t.a_restores

    let crashed t =
      let acc = ref [] in
      for i = t.a_n - 1 downto 0 do
        if Bytes.get t.a_status i = st_crashed then
          acc :=
            (Pid.of_int (i + 1), Round.of_int t.a_crash_round.(i)) :: !acc
      done;
      !acc

    (* ---------------------------------------------------------------- *)
    (* Snapshots *)

    let save t =
      let n = t.a_n in
      if t.a_depth = Array.length t.a_stack then begin
        (* The first save, or a DFS deeper than any before: grow the stack,
           and start interning — branching is what revisits statuses. *)
        if Option.is_none t.a_tables then
          t.a_tables <-
            Some
              {
                spines = Hashtbl.create 64;
                lost = Array.init n (fun _ -> Hashtbl.create 16);
                dst_srcs = Hashtbl.create 8;
              };
        let depth = t.a_depth in
        let grown =
          Array.init
            (max 8 (2 * depth))
            (fun i ->
              if i < depth then t.a_stack.(i)
              else
                {
                  sn_status = Bytes.make n st_done;
                  sn_states = Array.make n t.a_filler;
                  sn_live = 0;
                  sn_next = 0;
                  sn_decisions = [];
                  sn_late = Int_map.empty;
                })
        in
        t.a_stack <- grown
      end;
      let s = t.a_stack.(t.a_depth) in
      Bytes.blit t.a_status 0 s.sn_status 0 n;
      Array.blit t.a_states 0 s.sn_states 0 n;
      s.sn_live <- t.a_live;
      s.sn_next <- t.a_next;
      s.sn_decisions <- t.a_decisions;
      s.sn_late <- t.a_late;
      t.a_depth <- t.a_depth + 1;
      t.a_snapshots <- t.a_snapshots + 1

    let restore t =
      if t.a_depth = 0 then invalid_arg "Engine.Arena.restore: no snapshot";
      let n = t.a_n in
      let s = t.a_stack.(t.a_depth - 1) in
      Bytes.blit s.sn_status 0 t.a_status 0 n;
      Array.blit s.sn_states 0 t.a_states 0 n;
      t.a_live <- s.sn_live;
      t.a_next <- s.sn_next;
      t.a_decisions <- s.sn_decisions;
      t.a_late <- s.sn_late;
      t.a_restores <- t.a_restores + 1

    let drop t =
      if t.a_depth = 0 then invalid_arg "Engine.Arena.drop: no snapshot";
      t.a_depth <- t.a_depth - 1

    (* ---------------------------------------------------------------- *)
    (* Fingerprints *)

    let canon_late late =
      Int_map.fold
        (fun k per acc ->
          ( k,
            List.map (fun (p, q) -> (Pid.to_int p, q)) (Pid.Map.bindings per)
          )
          :: acc)
        late []

    (* Two states with equal fingerprints produce identical sweep verdicts
       for every suffix of adversary choices. The aggregates a sweep
       extracts from a finished trace ([Props.check] and
       [Trace.global_decision_round]) read only the decisions (values, pids
       and rounds), the crashed pid set, the proposals (fixed per sweep)
       and the all-halted flag, while the {e future} evolution is a
       deterministic function of the running states, the in-flight delayed
       messages and the round number (part of the caller's key). So the
       status byte tags each slot, running slots keep their state, and
       non-running slots are pinned to one filler: a halted process has no
       future behaviour and its halting round is not observable in any
       verdict, and crash rounds are dropped by [Trace.correct] and
       [Props]. The late map is re-keyed to canonical int/bindings form;
       queue order inside a delivery slot is preserved (it affects inbox
       order, hence the future), so two states differing only there
       conservatively miss rather than alias. *)
    let probe_fingerprint t =
      let fp = t.a_fp in
      Bytes.blit t.a_status 0 fp.fp_status 0 t.a_n;
      for i = 0 to t.a_n - 1 do
        fp.fp_states.(i) <-
          (if Bytes.get t.a_status i = st_running then t.a_states.(i)
           else t.a_filler)
      done;
      fp.fp_late <-
        (if Int_map.is_empty t.a_late then [] else canon_late t.a_late);
      fp.fp_decisions <- t.a_decisions;
      fp

    let copy_fingerprint fp =
      {
        fp_status = Bytes.copy fp.fp_status;
        fp_states = Array.copy fp.fp_states;
        fp_late = fp.fp_late;
        fp_decisions = fp.fp_decisions;
      }

    let fingerprint t = copy_fingerprint (probe_fingerprint t)

    (* ---------------------------------------------------------------- *)
    (* Round execution *)

    let rec apply_crashes t round = function
      | [] -> ()
      | victim :: rest ->
          let i = Pid.to_int victim - 1 in
          if Bytes.get t.a_status i = st_running then begin
            Bytes.set t.a_status i st_crashed;
            t.a_crash_round.(i) <- Round.to_int round;
            t.a_live <- t.a_live - 1
          end;
          apply_crashes t round rest

    (* Refresh every running sender's cell in place, in ascending pid
       order like the recording engine, so a raising [on_send] is
       attributed to the same process. Cells are created at first use (a
       process not running at one branch's first fast round may be running
       after a restore in another). *)
    let refresh_cells t round =
      for src = 1 to t.a_n do
        if Bytes.get t.a_status (src - 1) = st_running then begin
          let srcp = Pid.of_int src in
          match t.a_cells.(src - 1) with
          | Some e ->
              e.Envelope.sent <- round;
              e.Envelope.payload <-
                send_guarded t.a_states.(src - 1) ~pid:srcp round
          | None ->
              t.a_cells.(src - 1) <-
                Some
                  (Envelope.make ~src:srcp ~sent:round
                     (send_guarded t.a_states.(src - 1) ~pid:srcp round))
        end
      done

    let cell t src =
      match t.a_cells.(src - 1) with Some e -> e | None -> assert false

    (* The running cells in ascending sender order, without [skip] (a pid,
       or 0 for none) and the members of [skip_set]: the spine, or a
       reduced inbox with one omitter's or a set of omitters' messages
       removed. *)
    let collect t ~skip ~skip_set =
      let acc = ref [] in
      for src = t.a_n downto 1 do
        if
          Bytes.get t.a_status (src - 1) = st_running
          && src <> skip
          && not (Bitset.Big.mem src skip_set)
        then acc := cell t src :: !acc
      done;
      !acc

    let interned tbl t ~skip ~skip_set =
      match Hashtbl.find tbl t.a_status with
      | l -> l
      | exception Not_found ->
          let l = collect t ~skip ~skip_set in
          Hashtbl.add tbl (Bytes.copy t.a_status) l;
          l

    let relink_spine t =
      if not (Bytes.equal t.a_status t.a_spine_status) then begin
        let skip_set = Bitset.Big.empty in
        t.a_spine <-
          (match t.a_tables with
          | None -> collect t ~skip:0 ~skip_set
          | Some tb -> interned tb.spines t ~skip:0 ~skip_set);
        Bytes.blit t.a_status 0 t.a_spine_status 0 t.a_n
      end

    (* Reduced inboxes are interned the same way; [Single_lost] nests by
       source in an array, [Single_dst] by the canonical omitter bitset. *)
    let reduced_lost t sl_src =
      let skip_set = Bitset.Big.empty in
      match t.a_tables with
      | None -> collect t ~skip:sl_src ~skip_set
      | Some tb -> interned tb.lost.(sl_src - 1) t ~skip:sl_src ~skip_set

    let reduced_dst t sd_srcs =
      match t.a_tables with
      | None -> collect t ~skip:0 ~skip_set:sd_srcs
      | Some tb ->
          let tbl =
            match Hashtbl.find tb.dst_srcs sd_srcs with
            | tbl -> tbl
            | exception Not_found ->
                let tbl = Hashtbl.create 16 in
                Hashtbl.add tb.dst_srcs sd_srcs tbl;
                tbl
          in
          interned tbl t ~skip:0 ~skip_set:sd_srcs

    let receive_one t p round inbox =
      let i = Pid.to_int p - 1 in
      let st = t.a_states.(i) in
      let before = A.decision st in
      let st' = receive_guarded st ~pid:p round inbox in
      let after = A.decision st' in
      (match (before, after) with
      | Some v, Some w when not (Value.equal v w) ->
          fail ~pid:p ~round
            (Format.asprintf "changed its decision from %a to %a" Value.pp v
               Value.pp w)
      | Some _, None -> fail ~pid:p ~round "retracted its decision"
      | None, Some v ->
          (* Consing in ascending-pid order leaves this round's decisions
             descending by pid at the front: reversed, the list is
             chronological and sorted by pid within a round, as the
             recording engine builds it. *)
          t.a_decisions <-
            { Trace.pid = p; round; value = v } :: t.a_decisions
      | None, None | Some _, Some _ -> ());
      if A.halted st' then begin
        Bytes.set t.a_status i st_done;
        t.a_live <- t.a_live - 1
      end
      else t.a_states.(i) <- st'

    (* Route a general round's fresh envelopes, given newest sender first:
       consing them in that order leaves every inbox and every late queue
       ascending by sender. *)
    let rec route t cplan ib = function
      | [] -> ()
      | (env : A.msg Envelope.t) :: rest ->
          let srcp = env.Envelope.src in
          let src = Pid.to_int srcp in
          for dst = 1 to t.a_n do
            if dst = src then ib.(dst - 1) <- env :: ib.(dst - 1)
            else
              match
                Schedule.compiled_fate cplan ~src:srcp ~dst:(Pid.of_int dst)
              with
              | Schedule.Same_round -> ib.(dst - 1) <- env :: ib.(dst - 1)
              | Schedule.Lost -> ()
              | Schedule.Delayed_until until ->
                  let k = Round.to_int until in
                  let dstp = Pid.of_int dst in
                  let per =
                    Option.value
                      (Int_map.find_opt k t.a_late)
                      ~default:Pid.Map.empty
                  in
                  let q =
                    Option.value (Pid.Map.find_opt dstp per) ~default:[]
                  in
                  t.a_late <-
                    Int_map.add k (Pid.Map.add dstp (env :: q) per) t.a_late
          done;
          route t cplan ib rest

    (* A raising step leaves the arena mid-round (dirty); the DFS contract
       is that the caller rewinds to a snapshot before touching it again. *)
    let step t cplan =
      let n = t.a_n in
      let round = Round.of_int t.a_next in
      let plan = Schedule.compiled_source cplan in
      let fates = Schedule.compiled_fates cplan in
      let late_due =
        if Int_map.is_empty t.a_late then None
        else Int_map.find_opt t.a_next t.a_late
      in
      match fates with
      | (Schedule.Quiet | Schedule.Single_lost _ | Schedule.Single_dst _)
        when late_due = None ->
          (* Fast path: refresh the spine in place; at most one reduced
             inbox (the victim's messages removed, or the starved
             receiver's view) is built per round — ~n conses on faulty
             rounds, nothing at all on steady quiet rounds. *)
          refresh_cells t round;
          relink_spine t;
          let m_dsts =
            match fates with
            | Schedule.Single_lost { sl_dsts; _ } -> sl_dsts
            | _ -> Bitset.Big.empty
          in
          let m_dst =
            match fates with
            | Schedule.Single_dst { sd_dst; _ } -> sd_dst
            | _ -> 0
          in
          let reduced =
            match fates with
            | Schedule.Quiet | Schedule.Table _ -> []
            | Schedule.Single_lost { sl_src; _ } -> reduced_lost t sl_src
            | Schedule.Single_dst { sd_srcs; _ } -> reduced_dst t sd_srcs
          in
          apply_crashes t round plan.Schedule.crashes;
          for i = 0 to n - 1 do
            if Bytes.get t.a_status i = st_running then begin
              let inbox =
                if m_dst > 0 then
                  if i + 1 = m_dst then reduced else t.a_spine
                else if Bitset.Big.mem (i + 1) m_dsts then reduced
                else t.a_spine
              in
              receive_one t (Pid.of_int (i + 1)) round inbox
            end
          done;
          t.a_next <- t.a_next + 1
      | _ ->
          (* General path (fate tables, delayed messages, late deliveries
             due this round): fresh envelopes per sender — late envelopes
             outlive the round and must never alias the mutable spine
             cells. *)
          if late_due <> None then
            t.a_late <- Int_map.remove t.a_next t.a_late;
          let sent = ref [] in
          for src = 1 to n do
            if Bytes.get t.a_status (src - 1) = st_running then begin
              let srcp = Pid.of_int src in
              sent :=
                Envelope.make ~src:srcp ~sent:round
                  (send_guarded t.a_states.(src - 1) ~pid:srcp round)
                :: !sent
            end
          done;
          let ib = Array.make n [] in
          route t cplan ib !sent;
          (match late_due with
          | None -> ()
          | Some per ->
              (* Late arrivals break the by-construction sender order:
                 merge and re-sort exactly like the batch engine. *)
              Pid.Map.iter
                (fun dst q ->
                  let i = Pid.to_int dst - 1 in
                  ib.(i) <-
                    List.sort Envelope.compare_src
                      (List.rev_append q ib.(i)))
                per);
          apply_crashes t round plan.Schedule.crashes;
          for i = 0 to n - 1 do
            if Bytes.get t.a_status i = st_running then
              receive_one t (Pid.of_int (i + 1)) round ib.(i)
          done;
          t.a_next <- t.a_next + 1

    let trace ~schedule t =
      {
        Trace.algorithm = A.name;
        config = t.a_config;
        proposals = t.a_proposals;
        schedule;
        decisions = List.rev t.a_decisions;
        crashes = crashed t;
        rounds_executed = t.a_next - 1;
        all_halted = t.a_live = 0;
        records = [];
      }

    let settle ?max_rounds ?prof ~schedule t =
      let max_rounds =
        Option.value max_rounds
          ~default:(default_max_rounds t.a_config schedule)
      in
      let n = t.a_n in
      let horizon = Schedule.horizon schedule in
      (* One preallocated thunk: [measure] per round must not cost a
         closure per round. *)
      let step_once () =
        if t.a_next <= horizon then
          step t
            (Schedule.compile_plan ~n
               (Schedule.plan_at schedule (Round.of_int t.a_next)))
        else step t Schedule.compiled_empty_plan
      in
      match prof with
      | None ->
          while t.a_live > 0 && t.a_next <= max_rounds do
            step_once ()
          done
      | Some a ->
          while t.a_live > 0 && t.a_next <= max_rounds do
            Obs.Prof.measure a step_once
          done

    let finish ?max_rounds ?prof ~schedule t =
      settle ?max_rounds ?prof ~schedule t;
      trace ~schedule t

    (* [Props.check] on the finished trace, read off the slabs. Validity:
       every decided value was proposed. Agreement: the decisions of
       non-omitters all carry one value (equal to the chronologically
       first one iff equal to each other). Termination: every correct
       process (neither crashed nor an omitter) decided — each process
       decides at most once, so counting correct deciders suffices. The
       scan is tail-recursive over the newest-first list and allocates
       nothing. *)
    let dirty = -1

    let rec proposed vs v i =
      i < Array.length vs && (Value.equal vs.(i) v || proposed vs v (i + 1))

    let rec scan t omitters ds ~anchored anchor ~deciders ~last =
      match ds with
      | [] ->
          let correct = ref 0 in
          for i = 0 to t.a_n - 1 do
            if
              Bytes.get t.a_status i <> st_crashed
              && not (Bitset.Big.mem (i + 1) omitters)
            then incr correct
          done;
          if deciders = !correct then last else dirty
      | (d : Trace.decision) :: rest ->
          if not (proposed t.a_proposed d.value 0) then dirty
          else
            let p = Pid.to_int d.pid in
            let last = Int.max last (Round.to_int d.round) in
            if Bitset.Big.mem p omitters then
              scan t omitters rest ~anchored anchor ~deciders ~last
            else if anchored && not (Value.equal anchor d.value) then dirty
            else
              let deciders =
                if Bytes.get t.a_status (p - 1) = st_crashed then deciders
                else deciders + 1
              in
              scan t omitters rest ~anchored:true d.value ~deciders ~last

    let judge t ~omitters =
      scan t omitters t.a_decisions ~anchored:false Value.zero ~deciders:0
        ~last:0

    (* A one-shot arena dies with its run, but a minor collection during
       the run may already have promoted it; every young state, cell,
       decision or late message it still points to is then kept alive, and
       promoted in turn, through the remembered set. Halting every slot and
       dropping those references at the end of the run cuts them. *)
    let one_shot config ~proposals f =
      let t = create config ~proposals in
      Fun.protect (fun () -> f t) ~finally:(fun () ->
          Bytes.fill t.a_status 0 t.a_n st_done;
          t.a_live <- 0;
          Array.fill t.a_states 0 t.a_n t.a_filler;
          Array.fill t.a_cells 0 t.a_n None;
          t.a_spine <- [];
          t.a_decisions <- [];
          t.a_late <- Int_map.empty)
  end

  let run ?(record = false) ?(sink = Obs.Sink.noop) ?max_rounds ?prof config
      ~proposals schedule =
    if (not record) && not (Obs.Sink.enabled sink) then
      (* Nobody is watching: run on the arena instead of the map-based
         recording engine. Same trace (decisions, crashes, round count and
         halt flag; both paths build [records = []]). *)
      Arena.one_shot config ~proposals
        (Arena.finish ?max_rounds ?prof ~schedule)
    else begin
    let max_rounds =
      Option.value max_rounds ~default:(default_max_rounds config schedule)
    in
    if Obs.Sink.enabled sink then
      Obs.Sink.emit sink
        (Obs.Event.Run_start
           {
             algorithm = A.name;
             n = Config.n config;
             t = Config.t config;
             proposals = Pid.Map.bindings proposals;
           });
    let rec loop sys =
      if all_halted sys || Round.to_int sys.next_round > max_rounds then sys
      else
        let plan = Schedule.plan_at schedule sys.next_round in
        let sys' =
          match prof with
          | None -> step sys plan
          | Some a -> Obs.Prof.measure a (fun () -> step sys plan)
        in
        loop sys'
    in
    let sys =
      loop { (start ~sink config ~proposals) with recording = record }
    in
    let trace =
      {
        Trace.algorithm = A.name;
        config;
        proposals;
        schedule;
        decisions = decisions sys;
        crashes = crashed sys;
        rounds_executed = Round.to_int sys.next_round - 1;
        all_halted = all_halted sys;
        records = List.rev sys.rev_records;
      }
    in
    if Obs.Sink.enabled sink then
      Obs.Sink.emit sink
        (Obs.Event.Run_end
           {
             rounds = trace.Trace.rounds_executed;
             decided = List.length trace.Trace.decisions;
             all_halted = trace.Trace.all_halted;
           });
    trace
    end
end
