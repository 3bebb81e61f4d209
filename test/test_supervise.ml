(* The process supervisor under hostility: scripted workers (forked
   closures speaking the real wire protocol) that die, stall or behave on
   cue, and the genuine `ipi sweep-worker` binary driven through a
   checkpoint/interrupt/resume cycle with chaos injection. All scripting
   is deterministic — workers misbehave on instruction, never on a
   timer — so every assertion here is exact, not statistical. *)

open Kernel
open Helpers
module J = Obs.Json

let payload task = J.Obj [ ("task", J.Int task); ("sq", J.Int (task * task)) ]

(* A worker that reads assignment frames and consults [behave] (with its
   own per-process frame count) before answering: [`Reply] echoes the
   task with a recomputable payload, [`Die] exits without answering,
   [`Stall] wedges forever so only a chunk timeout can rescue the task. *)
let scripted_worker ?(behave = fun ~count:_ ~task:_ -> `Reply) () =
  Proc.fork (fun ic oc ->
      let count = ref 0 in
      let rec go () =
        match Obs.Wire.read ic with
        | Error _ -> ()
        | Ok json ->
            if Option.is_some (J.member "shutdown" json) then ()
            else (
              match Option.bind (J.member "task" json) J.to_int_opt with
              | None -> exit 9
              | Some task -> (
                  incr count;
                  match behave ~count:!count ~task with
                  | `Reply ->
                      Obs.Wire.write oc (payload task);
                      go ()
                  | `Die -> exit 7
                  | `Stall ->
                      Unix.sleep 1000;
                      exit 8))
      in
      go ())

let test_supervise_completes_in_order () =
  let tasks = List.init 20 Fun.id in
  let outcome =
    Mc.Supervise.run ~workers:3
      ~spawn:(fun () -> scripted_worker ())
      ~tasks ()
  in
  check_bool "every task completed, in ascending order" true
    (List.map fst outcome.Mc.Supervise.completed = tasks);
  check_bool "payloads ferried back verbatim" true
    (List.for_all
       (fun (t, j) -> Option.bind (J.member "sq" j) J.to_int_opt = Some (t * t))
       outcome.Mc.Supervise.completed);
  check_bool "nothing failed or interrupted" true
    (outcome.Mc.Supervise.failed = [] && outcome.Mc.Supervise.interrupted = []);
  check_int "one frame per task" 20 outcome.Mc.Supervise.metrics.Mc.Supervise.frames;
  check_int "no deaths on a calm run" 0
    outcome.Mc.Supervise.metrics.Mc.Supervise.deaths

let test_supervise_death_and_retry () =
  (* The first spawned worker dies on its first assignment; every
     replacement behaves. The murdered task must be reassigned and the
     sweep must converge with no failures. *)
  let spawns = ref 0 in
  let spawn () =
    incr spawns;
    let doomed = !spawns = 1 in
    scripted_worker
      ~behave:(fun ~count ~task:_ ->
        if doomed && count = 1 then `Die else `Reply)
      ()
  in
  let tasks = List.init 8 Fun.id in
  let outcome =
    Mc.Supervise.run ~workers:2 ~max_retries:3 ~backoff:0.01 ~spawn ~tasks ()
  in
  check_bool "all tasks complete despite the death" true
    (List.map fst outcome.Mc.Supervise.completed = tasks);
  check_bool "no task failed" true (outcome.Mc.Supervise.failed = []);
  let m = outcome.Mc.Supervise.metrics in
  check_bool "the death was seen" true (m.Mc.Supervise.deaths >= 1);
  check_bool "the task was retried" true (m.Mc.Supervise.retries >= 1);
  (* the surviving worker may drain the queue before the backoff respawn
     fires, so only the initial pool size is guaranteed *)
  check_bool "spawn count covers the pool" true (m.Mc.Supervise.spawned >= 2)

let test_supervise_poison_task_bounded_retry () =
  (* Task 5 kills every worker that touches it: after max_retries + 1
     attempts it must land in [failed] — and the rest of the sweep must
     survive it. *)
  let spawn () =
    scripted_worker
      ~behave:(fun ~count:_ ~task -> if task = 5 then `Die else `Reply)
      ()
  in
  let outcome =
    Mc.Supervise.run ~workers:2 ~max_retries:1 ~backoff:0.01 ~spawn
      ~tasks:(List.init 8 Fun.id) ()
  in
  check_bool "the healthy tasks all complete" true
    (List.map fst outcome.Mc.Supervise.completed = [ 0; 1; 2; 3; 4; 6; 7 ]);
  (match outcome.Mc.Supervise.failed with
  | [ (5, _) ] -> ()
  | other ->
      Alcotest.fail
        (Printf.sprintf "expected exactly task 5 to fail, got %d failures"
           (List.length other)));
  check_bool "attempts were bounded" true
    (outcome.Mc.Supervise.metrics.Mc.Supervise.deaths >= 2)

let test_supervise_stall_rescued_by_timeout () =
  (* The first worker wedges on task 2 (SIGSTOP-style, via sleep); the
     chunk timeout must kill it and reassign the task to a replacement. *)
  let spawns = ref 0 in
  let spawn () =
    incr spawns;
    let wedged = !spawns = 1 in
    scripted_worker
      ~behave:(fun ~count:_ ~task ->
        if wedged && task = 2 then `Stall else `Reply)
      ()
  in
  let tasks = List.init 5 Fun.id in
  let outcome =
    Mc.Supervise.run ~workers:1 ~chunk_timeout:0.4 ~max_retries:3 ~backoff:0.01
      ~spawn ~tasks ()
  in
  check_bool "all tasks complete despite the stall" true
    (List.map fst outcome.Mc.Supervise.completed = tasks);
  check_bool "no task failed" true (outcome.Mc.Supervise.failed = []);
  check_bool "the stall was a chunk timeout" true
    (outcome.Mc.Supervise.metrics.Mc.Supervise.timeouts >= 1)

let test_supervise_should_stop_partitions () =
  let finished = ref 0 in
  let outcome =
    Mc.Supervise.run ~workers:2
      ~should_stop:(fun () -> !finished >= 3)
      ~on_result:(fun ~task:_ _ -> incr finished)
      ~spawn:(fun () -> scripted_worker ())
      ~tasks:(List.init 30 Fun.id) ()
  in
  check_bool "stop leaves unfinished work in interrupted" true
    (outcome.Mc.Supervise.interrupted <> []);
  check_bool "completed + interrupted + failed partition the tasks" true
    (List.sort compare
       (List.map fst outcome.Mc.Supervise.completed
       @ outcome.Mc.Supervise.interrupted
       @ List.map fst outcome.Mc.Supervise.failed)
    = List.init 30 Fun.id)

let test_supervise_chaos_converges () =
  (* Seeded chaos murders workers mid-assignment, but with budget <
     retries every task survives at least one undisturbed attempt. *)
  let chaos = Mc.Supervise.default_chaos Mc.Supervise.Kill ~seed:7 in
  let tasks = List.init 16 Fun.id in
  let outcome =
    Mc.Supervise.run ~chaos ~workers:2 ~backoff:0.01
      ~spawn:(fun () -> scripted_worker ())
      ~tasks ()
  in
  check_bool "chaos-ridden run still completes every task" true
    (List.map fst outcome.Mc.Supervise.completed = tasks);
  check_bool "no task failed" true (outcome.Mc.Supervise.failed = []);
  check_bool "injections stayed within budget" true
    (outcome.Mc.Supervise.metrics.Mc.Supervise.chaos_injected
    <= chaos.Mc.Supervise.budget)

(* ------------------------------------------------------------------ *)
(* End to end: the real `ipi sweep-worker` binary                       *)

(* dune's (deps ../bin/ipi.exe) guarantees the binary exists and is
   fresh; resolve it relative to this test binary so the path holds under
   both `dune runtest` and `dune exec` from the repository root. *)
let ipi_exe =
  Filename.concat
    (Filename.concat (Filename.dirname Sys.executable_name) "..")
    (Filename.concat "bin" "ipi.exe")

let result_equal = Mc.Codec.result_equal
let floodset_algo = Expt.Registry.floodset.Expt.Registry.algo

let e2e_worker_argv ?(reduce = "dedup") ?(binary = false) config =
  [
    ipi_exe;
    "sweep-worker";
    "-a";
    Expt.Registry.floodset.Expt.Registry.label;
    "-n";
    string_of_int (Config.n config);
    "-t";
    string_of_int (Config.t config);
    "--faults";
    "crash";
    "--policy";
    "prefixes";
    "--reduce";
    reduce;
  ]
  @ if binary then [ "--binary" ] else []

let workers ?chaos_seed argv =
  Mc.Sweep.Workers
    {
      workers = 2;
      argv;
      chaos =
        Option.map
          (fun seed -> Mc.Supervise.default_chaos Mc.Supervise.Kill ~seed)
          chaos_seed;
      chunk_timeout = None;
    }

let test_sweep_worker_end_to_end () =
  let cfg = config ~n:5 ~t:2 in
  let spec = fixed_spec ~reduce:Mc.Sweep.Dedup ~algo:floodset_algo cfg in
  let argv = e2e_worker_argv cfg in
  let serial = sweep_outcome spec in
  (* 1. chaos-ridden supervised sweep, straight through *)
  let sup = sweep_outcome ~exec:(workers ~chaos_seed:11 argv) spec in
  check_bool "supervised run completes" false sup.partial;
  check_bool "chaos-ridden 2-worker sweep is bit-identical to serial" true
    (result_equal serial.result sup.result);
  check_bool "reduction stats identical across the process boundary" true
    (serial.stats = sup.stats);
  check_int "edge counts identical" serial.edges sup.edges;
  check_bool "supervisor metrics are reported" true (sup.supervisor <> None);
  (* 2. interrupt a serial sweep deterministically, then finish the job
     under supervision, with chaos, from its checkpoint *)
  with_temp_file @@ fun path ->
  let polls = ref 0 in
  let part =
    sweep_outcome ~checkpoint:(path, 1)
      ~should_stop:(fun () ->
        incr polls;
        !polls > 6)
      spec
  in
  check_bool "interrupted run reports PARTIAL" true part.partial;
  check_int "six tasks persisted before the interrupt" 6
    (List.length part.completed);
  let resumed =
    sweep_outcome ~resume:(load_checkpoint path)
      ~exec:(workers ~chaos_seed:5 argv) spec
  in
  check_bool "resumed supervised run completes" false resumed.partial;
  check_bool "interrupt + chaos resume is bit-identical to serial" true
    (result_equal serial.result resumed.result);
  check_bool "stats identical after the full cycle" true
    (serial.stats = resumed.stats);
  (* 3. dedup+sym across workers, checkpointed: one task per orbit *)
  let sym = binary_spec ~reduce:Mc.Sweep.Dedup_sym ~algo:floodset_algo cfg in
  let sym_serial = sweep_outcome sym in
  let sym_workers =
    sweep_outcome ~checkpoint:(path, 1)
      ~exec:
        (workers (e2e_worker_argv ~reduce:"dedup+sym" ~binary:true cfg))
      sym
  in
  check_int "one task per orbit" 6 sym_workers.total_tasks;
  check_bool "dedup+sym across workers is bit-identical to serial" true
    (result_equal sym_serial.result sym_workers.result
    && sym_serial.stats = sym_workers.stats)

let test_supervised_immediate_stop () =
  let cfg = config ~n:5 ~t:2 in
  let stopped =
    sweep_outcome
      ~should_stop:(fun () -> true)
      ~exec:(workers (e2e_worker_argv cfg))
      (fixed_spec ~reduce:Mc.Sweep.Dedup ~algo:floodset_algo cfg)
  in
  check_bool "immediate stop reports PARTIAL" true stopped.partial;
  check_int "nothing completed" 0 (List.length stopped.completed)

(* A task that raises outside the engine is answered with a failure frame,
   not a dead worker: the supervisor then reports the same shard failure
   an in-process run does. *)
let test_worker_contains_task_failures () =
  let spec =
    fixed_spec ~horizon:2 ~algo:Fuzz.Faulty.raising_init (config ~n:3 ~t:1)
  in
  with_temp_file @@ fun input ->
  with_temp_file @@ fun output ->
  Out_channel.with_open_bin input (fun oc ->
      Obs.Wire.write oc (J.Obj [ ("task", J.Int 0) ]);
      Obs.Wire.write oc (J.Obj [ ("shutdown", J.Bool true) ]));
  In_channel.with_open_bin input (fun ic ->
      Out_channel.with_open_bin output (fun oc ->
          Mc.Sweep.worker_loop spec ic oc));
  let frame =
    In_channel.with_open_bin output (fun ic ->
        match Obs.Wire.read ic with
        | Ok j -> j
        | Error e -> Alcotest.fail (Format.asprintf "%a" Obs.Wire.pp_error e))
  in
  let in_process = List.hd (sweep_outcome spec).result.shard_failures in
  check_bool "failure frame carries the task" true
    (J.member "task" frame = Some (J.Int 0));
  check_bool "and the in-process message" true
    (J.member "failure" frame = Some (J.String in_process.message))

(* The real CLI: --jobs, --checkpoint, --metrics and --trace compose. *)
let ipi_stdout args =
  let ic = Unix.open_process_args_in ipi_exe (Array.of_list (ipi_exe :: args)) in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> out
  | _ -> Alcotest.fail ("ipi " ^ String.concat " " args ^ " failed")

let test_cli_flags_compose () =
  let shape =
    [ "sweep"; "-a"; "FloodSet"; "-n"; "4"; "-t"; "2"; "--binary";
      "--reduce"; "dedup" ]
  in
  let block out =
    List.filter
      (fun l ->
        contains l " run(s)"
        || String.starts_with ~prefix:"reduction:" l
        || String.starts_with ~prefix:"worst run:" l)
      (String.split_on_char '\n' out)
  in
  with_temp_file @@ fun ckpt ->
  with_temp_file @@ fun trace ->
  let serial = ipi_stdout shape in
  let composed =
    ipi_stdout
      (shape
      @ [ "--jobs"; "2"; "--checkpoint"; ckpt; "--metrics"; "--trace"; trace ]
      )
  in
  check_bool "result block equals the serial sweep" true
    (block serial = block composed && List.length (block serial) = 3);
  check_bool "metrics block printed" true (contains composed "mc.runs");
  check_bool "trace parses as JSON" true
    (Result.is_ok
       (Obs.Json.of_string (In_channel.with_open_bin trace In_channel.input_all)));
  check_bool "checkpoint written" true (Result.is_ok (Mc.Checkpoint.load ~path:ckpt))

(* Exit code of an ipi invocation started with [args], output discarded;
   [signal] runs on the child's pid before it is reaped. *)
let ipi_exit ?(signal = fun _ -> ()) args =
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close null)
      (fun () ->
        Unix.create_process ipi_exe
          (Array.of_list (ipi_exe :: args))
          Unix.stdin null null)
  in
  signal pid;
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED c -> c
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> -1

(* A flag that cannot take effect is refused, never dropped. *)
let test_cli_refuses_inert_flags () =
  let shape = [ "sweep"; "-a"; "FloodSet"; "-n"; "4"; "-t"; "1" ] in
  check_int "--jobs with --workers" 2
    (ipi_exit (shape @ [ "--workers"; "2"; "--jobs"; "2" ]));
  check_int "--chaos without --workers" 2
    (ipi_exit (shape @ [ "--chaos"; "kill" ]))

(* SIGTERM once the first checkpoint is on disk: the in-process sweep on
   two domains stops, flushes a final snapshot and exits 3 (PARTIAL). *)
let test_cli_sigterm_flushes_checkpoint () =
  with_temp_file @@ fun ckpt ->
  let written () = (Unix.stat ckpt).Unix.st_size > 0 in
  let rec await k =
    if k > 0 && not (written ()) then begin
      Unix.sleepf 0.01;
      await (k - 1)
    end
  in
  let code =
    ipi_exit
      ~signal:(fun pid ->
        await 3000;
        Unix.kill pid Sys.sigterm)
      [ "sweep"; "-a"; "FloodSet"; "-n"; "7"; "-t"; "3"; "--binary";
        "--reduce"; "dedup"; "--jobs"; "2"; "--checkpoint"; ckpt;
        "--checkpoint-every"; "1" ]
  in
  check_int "exit 3 (PARTIAL)" 3 code;
  match Mc.Checkpoint.load ~path:ckpt with
  | Error _ -> Alcotest.fail "checkpoint does not load"
  | Ok ck ->
      check_bool "some but not all shards" true
        (ck.completed <> [] && List.length ck.completed < ck.total_tasks)

let () =
  Alcotest.run "supervise"
    [
      ( "scripted workers",
        [
          Alcotest.test_case "completes in order" `Quick
            test_supervise_completes_in_order;
          Alcotest.test_case "death and retry" `Quick
            test_supervise_death_and_retry;
          Alcotest.test_case "poison task bounded retry" `Quick
            test_supervise_poison_task_bounded_retry;
          Alcotest.test_case "stall rescued by timeout" `Quick
            test_supervise_stall_rescued_by_timeout;
          Alcotest.test_case "should_stop partitions tasks" `Quick
            test_supervise_should_stop_partitions;
          Alcotest.test_case "chaos converges" `Quick
            test_supervise_chaos_converges;
        ] );
      ( "sweep-worker binary",
        [
          Alcotest.test_case "chaos / interrupt / resume cycle" `Quick
            test_sweep_worker_end_to_end;
          Alcotest.test_case "immediate stop" `Quick
            test_supervised_immediate_stop;
          Alcotest.test_case "worker contains task failures" `Quick
            test_worker_contains_task_failures;
          Alcotest.test_case "cli flags compose" `Quick test_cli_flags_compose;
          Alcotest.test_case "cli refuses inert flags" `Quick
            test_cli_refuses_inert_flags;
          Alcotest.test_case "cli SIGTERM flushes checkpoint" `Quick
            test_cli_sigterm_flushes_checkpoint;
        ] );
    ]
