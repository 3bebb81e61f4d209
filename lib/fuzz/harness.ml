open Kernel

(* One monitored, contained, fueled run on a one-shot engine arena.
   Rounds are stepped one by one so the monitor sees each round's new
   decisions as they happen; past the schedule horizon the shared
   precompiled empty plan keeps the loop allocation-free. *)

(* The decisions made since the arena's newest-first list had head
   [seen] are the cells in front of it; observe them oldest first —
   chronological and ascending by pid within the round. *)
let rec observe_since mon ds ~seen =
  if ds == seen then mon
  else
    match ds with
    | [] -> mon
    | d :: rest -> Monitor.observe (observe_since mon rest ~seen) d

let run ?fuel ?(monitor = true) ~algo:(Sim.Algorithm.Packed (module A))
    ~config ~proposals schedule =
  let module E = Sim.Engine.Make (A) in
  let n = Config.n config in
  let fuel =
    Option.value fuel ~default:(Sim.Engine.default_max_rounds config schedule)
  in
  let horizon = Sim.Schedule.horizon schedule in
  let omitters = Sim.Schedule.omitter_set schedule in
  let undecided a =
    let decided = List.map (fun d -> d.Sim.Trace.pid) (E.Arena.decisions a) in
    let crashed = List.map fst (E.Arena.crashed a) in
    List.filter
      (fun p ->
        (not (List.exists (Pid.equal p) decided))
        && (not (List.exists (Pid.equal p) crashed))
        (* Termination, like the post-hoc checker, is owed by correct
           processes only — a declared omitter may be starved forever. *)
        && not (Pid.Set.mem p omitters))
      (Config.processes config)
  in
  let omitb = Bitset.Big.of_pid_set omitters in
  (* Called once every process halted, so the run is final: judged off the
     arena, with a trace built and checked only when the verdict is
     dirty. *)
  let completed a ~rounds =
    let passed decision_round = Outcome.Passed { rounds; decision_round } in
    match E.Arena.judge a ~omitters:omitb with
    | 0 -> passed None
    | r when r > 0 -> passed (Some r)
    | _ -> (
        let trace = E.Arena.trace ~schedule a in
        match Sim.Props.check trace with
        | [] ->
            passed
              (Option.map Round.to_int (Sim.Trace.global_decision_round trace))
        | violations -> Outcome.Violated { round = rounds; violations })
  in
  E.Arena.one_shot config ~proposals (fun a ->
      try
        let rec go mon ~seen ~round =
          if E.Arena.all_halted a then completed a ~rounds:(round - 1)
          else if round > fuel then
            Outcome.Budget_exhausted { fuel; undecided = undecided a }
          else begin
            E.Arena.step a
              (if round <= horizon then
                 Sim.Schedule.compile_plan ~n
                   (Sim.Schedule.plan_at schedule (Round.of_int round))
               else Sim.Schedule.compiled_empty_plan);
            if not monitor then go mon ~seen ~round:(round + 1)
            else
              let ds = E.Arena.rev_decisions a in
              let mon = observe_since mon ds ~seen in
              match Monitor.violation mon with
              | Some v -> Outcome.Violated { round; violations = [ v ] }
              | None -> go mon ~seen:ds ~round:(round + 1)
          end
        in
        go (Monitor.create ~omitters ~proposals ()) ~seen:[] ~round:1
      with Sim.Engine.Step_error e -> Outcome.Crashed e)

let run_contained ?fuel ?monitor ~algo ~config ~proposals schedule =
  try run ?fuel ?monitor ~algo ~config ~proposals schedule with
  | (Stack_overflow | Out_of_memory) as e -> raise e
  | e -> Outcome.Raised (Printexc.to_string e)
