(* Tests for the job/pool scheduler: ordering, error propagation, the
   jobs=1 degenerate path, seed derivation, and the property the whole
   design exists for — parallel experiment output byte-identical to
   sequential. *)

(* ------------------------------------------------------------------ *)
(* Ordering *)

let test_results_in_submission_order () =
  Sched.Pool.with_pool ~jobs:4 @@ fun pool ->
  (* skew the work so completion order almost certainly differs from
     submission order *)
  let spin n =
    let acc = ref 0 in
    for i = 1 to n do
      acc := (!acc * 7) + i
    done;
    !acc
  in
  let jobs =
    List.init 40 (fun i ->
        Sched.Job.v ~id:(Printf.sprintf "job-%d" i) (fun () ->
            ignore (spin (if i mod 2 = 0 then 200_000 else 50));
            i))
  in
  Alcotest.(check (list int))
    "results merge in submission order" (List.init 40 Fun.id)
    (Sched.Pool.run_all pool jobs)

let test_pool_reusable_across_batches () =
  Sched.Pool.with_pool ~jobs:3 @@ fun pool ->
  List.iter
    (fun batch ->
      Alcotest.(check (list int))
        "batch result"
        (List.init batch (fun i -> i * i))
        (Sched.Pool.run_all pool
           (List.init batch (fun i ->
                Sched.Job.v ~id:(string_of_int i) (fun () -> i * i)))))
    [ 5; 0; 1; 17 ]

(* ------------------------------------------------------------------ *)
(* Exceptions *)

exception Boom of string

let test_first_failure_by_submission_order_wins () =
  Sched.Pool.with_pool ~jobs:4 @@ fun pool ->
  let jobs =
    List.init 8 (fun i ->
        Sched.Job.v ~id:(string_of_int i) (fun () ->
            if i = 2 then raise (Boom "first")
            else if i = 6 then raise (Boom "second")
            else i))
  in
  Alcotest.check_raises "earliest submitted failure propagates"
    (Boom "first") (fun () -> ignore (Sched.Pool.run_all pool jobs))

let test_pool_survives_a_failing_batch () =
  Sched.Pool.with_pool ~jobs:2 @@ fun pool ->
  (try
     ignore
       (Sched.Pool.run_all pool
          [ Sched.Job.v ~id:"boom" (fun () -> raise (Boom "x")) ])
   with Boom _ -> ());
  Alcotest.(check (list int))
    "next batch still runs" [ 1; 2 ]
    (Sched.Pool.run_all pool
       [
         Sched.Job.v ~id:"a" (fun () -> 1); Sched.Job.v ~id:"b" (fun () -> 2);
       ])

(* ------------------------------------------------------------------ *)
(* jobs=1 degenerate path *)

let test_sequential_runs_in_calling_domain () =
  let self = Domain.self () in
  let trace = ref [] in
  let results =
    Sched.Pool.run_all Sched.Pool.sequential
      (List.init 5 (fun i ->
           Sched.Job.v ~id:(string_of_int i) (fun () ->
               Alcotest.(check bool)
                 "job ran in the submitting domain" true
                 (Domain.self () = self);
               trace := i :: !trace;
               i)))
  in
  Alcotest.(check (list int)) "results" [ 0; 1; 2; 3; 4 ] results;
  Alcotest.(check (list int))
    "side effects in submission order" [ 0; 1; 2; 3; 4 ] (List.rev !trace)

let test_with_pool_jobs1_spawns_no_domains () =
  Sched.Pool.with_pool ~jobs:1 @@ fun pool ->
  let self = Domain.self () in
  Alcotest.(check (list bool))
    "every job in the submitting domain" [ true; true; true ]
    (Sched.Pool.run_all pool
       (List.init 3 (fun i ->
            Sched.Job.v ~id:(string_of_int i) (fun () ->
                Domain.self () = self))))

(* ------------------------------------------------------------------ *)
(* Seed derivation *)

let test_split_seed_deterministic_and_keyed () =
  let a = Sutil.Simrng.split_seed ~root:42L ~id:"fig3/gobmk" in
  let b = Sutil.Simrng.split_seed ~root:42L ~id:"fig3/gobmk" in
  let c = Sutil.Simrng.split_seed ~root:42L ~id:"fig3/mcf" in
  let d = Sutil.Simrng.split_seed ~root:43L ~id:"fig3/gobmk" in
  Alcotest.(check int64) "same (root, id) -> same seed" a b;
  Alcotest.(check bool) "different id -> different stream" true (a <> c);
  Alcotest.(check bool) "different root -> different stream" true (a <> d)

let test_seeded_job_carries_derived_seed () =
  let job = Sched.Job.seeded ~root:42L ~id:"cell" (fun ~seed -> seed) in
  Alcotest.(check int64) "job seed is the split seed"
    (Sutil.Simrng.split_seed ~root:42L ~id:"cell")
    (Sched.Job.seed job);
  Alcotest.(check int64) "run sees the same seed" (Sched.Job.seed job)
    (Sched.Job.run job)

(* ------------------------------------------------------------------ *)
(* Stress: failures in every position, closed pools, width clamping,
   nesting rejection *)

let test_raising_job_in_every_position () =
  Sched.Pool.with_pool ~jobs:3 @@ fun pool ->
  for bad = 0 to 7 do
    let jobs =
      List.init 8 (fun i ->
          Sched.Job.v ~id:(string_of_int i) (fun () ->
              if i = bad then raise (Boom (string_of_int i)) else i))
    in
    (match Sched.Pool.run_all pool jobs with
    | _ -> Alcotest.failf "position %d: batch did not raise" bad
    | exception Boom b ->
        Alcotest.(check string)
          (Printf.sprintf "position %d raises its own error" bad)
          (string_of_int bad) b);
    (* the same pool must still work after every failing batch *)
    Alcotest.(check (list int))
      "pool alive after failure" [ 0; 1 ]
      (Sched.Pool.run_all pool
         [ Sched.Job.v ~id:"x" (fun () -> 0); Sched.Job.v ~id:"y" (fun () -> 1) ])
  done

let test_closed_pool_still_runs_batches () =
  let pool = Sched.Pool.create ~jobs:4 () in
  Sched.Pool.close pool;
  Sched.Pool.close pool (* idempotent *);
  let self = Domain.self () in
  Alcotest.(check (list bool))
    "closed pool runs sequentially in the calling domain" [ true; true ]
    (Sched.Pool.run_all pool
       (List.init 2 (fun i ->
            Sched.Job.v ~id:(string_of_int i) (fun () -> Domain.self () = self))));
  Alcotest.(check (list int))
    "and supervises with a window of 1" [ 7; 8 ]
    (List.filter_map
       (function Sched.Job.Ok v -> Some v | _ -> None)
       (Sched.Pool.run_all_outcomes pool
          [ Sched.Job.v ~id:"a" (fun () -> 7); Sched.Job.v ~id:"b" (fun () -> 8) ]))

let test_jobs_clamped_to_max () =
  (* asking for far more than max_jobs domains must neither fail nor
     actually spawn thousands of workers *)
  Sched.Pool.with_pool ~jobs:100_000 @@ fun pool ->
  Alcotest.(check bool)
    "width clamped" true
    (Sched.Pool.jobs pool <= Sched.Pool.max_jobs);
  Alcotest.(check (list int))
    "oversized request still runs batches" (List.init 128 Fun.id)
    (Sched.Pool.run_all pool
       (List.init 128 (fun i -> Sched.Job.v ~id:(string_of_int i) (fun () -> i))))

let test_nested_submission_rejected () =
  Sched.Pool.with_pool ~jobs:2 @@ fun pool ->
  (* batches of >= 2: single-job batches take the sequential path and
     may nest freely, so only multi-job submissions hit the queue *)
  let saw_failure =
    match
      Sched.Pool.run_all pool
        [
          Sched.Job.v ~id:"outer" (fun () ->
              Sched.Pool.run_all pool
                (List.init 2 (fun i ->
                     Sched.Job.v ~id:(Printf.sprintf "inner-%d" i) (fun () -> i))));
          Sched.Job.v ~id:"peer" (fun () -> [ 9 ]);
        ]
    with
    | _ -> false
    | exception Failure msg ->
        String.length msg > 0
        && String.starts_with ~prefix:"Sched.Pool.run_all" msg
  in
  Alcotest.(check bool) "nested run_all on the same pool fails" true saw_failure;
  (* nesting on [sequential] from inside a pooled job is the documented
     escape hatch and must keep working *)
  Alcotest.(check (list (list int)))
    "nesting via Pool.sequential works"
    [ [ 0; 1 ]; [ 42 ] ]
    (Sched.Pool.run_all pool
       [
         Sched.Job.v ~id:"outer" (fun () ->
             Sched.Pool.run_all Sched.Pool.sequential
               (List.init 2 (fun i ->
                    Sched.Job.v ~id:(string_of_int i) (fun () -> i))));
         Sched.Job.v ~id:"peer" (fun () -> [ 42 ]);
       ])

(* ------------------------------------------------------------------ *)
(* Supervision: run_all_outcomes *)

let test_outcomes_ok_and_failed_mixed () =
  Sched.Pool.with_pool ~jobs:4 @@ fun pool ->
  let outcomes =
    Sched.Pool.run_all_outcomes pool
      (List.init 10 (fun i ->
           Sched.Job.v ~id:(string_of_int i) (fun () ->
               if i mod 3 = 0 then raise (Boom (string_of_int i)) else i)))
  in
  List.iteri
    (fun i outcome ->
      match outcome with
      | Sched.Job.Ok v ->
          Alcotest.(check bool) "ok only for non-multiples" true (i mod 3 <> 0);
          Alcotest.(check int) "value" i v
      | Sched.Job.Failed (Boom b) ->
          Alcotest.(check bool) "failed only for multiples" true (i mod 3 = 0);
          Alcotest.(check string) "failure is the job's own" (string_of_int i) b
      | Sched.Job.Failed _ | Sched.Job.Timed_out ->
          Alcotest.fail "unexpected outcome")
    outcomes

let test_outcomes_retry_eventually_succeeds () =
  Sched.Pool.with_pool ~jobs:2 @@ fun pool ->
  (* fails twice, succeeds on the third attempt; attempts counted via an
     atomic because each attempt runs on its own domain *)
  let attempts = Atomic.make 0 in
  let outcomes =
    Sched.Pool.run_all_outcomes ~retries:2 ~backoff:0.001 pool
      [
        Sched.Job.v ~id:"flaky" (fun () ->
            if Atomic.fetch_and_add attempts 1 < 2 then raise (Boom "flaky");
            42);
      ]
  in
  (match outcomes with
  | [ Sched.Job.Ok v ] -> Alcotest.(check int) "retried to success" 42 v
  | _ -> Alcotest.fail "expected Ok after retries");
  Alcotest.(check int) "three attempts" 3 (Atomic.get attempts)

let test_outcomes_retries_exhausted_reports_last_exn () =
  Sched.Pool.with_pool ~jobs:2 @@ fun pool ->
  let attempts = Atomic.make 0 in
  let outcomes =
    Sched.Pool.run_all_outcomes ~retries:2 ~backoff:0.001 pool
      [
        Sched.Job.v ~id:"hopeless" (fun () ->
            raise (Boom (string_of_int (Atomic.fetch_and_add attempts 1))));
      ]
  in
  (match outcomes with
  | [ Sched.Job.Failed (Boom b) ] ->
      Alcotest.(check string) "last attempt's exception" "2" b
  | _ -> Alcotest.fail "expected Failed");
  Alcotest.(check int) "1 + 2 retries" 3 (Atomic.get attempts)

let test_outcomes_timeout_does_not_lose_other_results () =
  Sched.Pool.with_pool ~jobs:4 @@ fun pool ->
  let release = Atomic.make false in
  let outcomes =
    Sched.Pool.run_all_outcomes ~timeout:0.2 pool
      (List.init 6 (fun i ->
           Sched.Job.v ~id:(string_of_int i) (fun () ->
               if i = 2 then
                 (* hang until released — far longer than the timeout *)
                 while not (Atomic.get release) do
                   Unix.sleepf 0.01
                 done;
               i)))
  in
  Atomic.set release true;
  List.iteri
    (fun i outcome ->
      match (i, outcome) with
      | 2, Sched.Job.Timed_out -> ()
      | 2, _ -> Alcotest.fail "hung job must report Timed_out"
      | _, Sched.Job.Ok v -> Alcotest.(check int) "other jobs keep results" i v
      | _, _ -> Alcotest.failf "job %d lost its result" i)
    outcomes

let test_outcomes_deterministic_across_widths () =
  let batch () =
    List.init 12 (fun i ->
        Sched.Job.v ~id:(string_of_int i) (fun () ->
            if i mod 4 = 1 then raise (Boom (string_of_int i)) else i * i))
  in
  let render outcomes =
    String.concat ";"
      (List.map
         (function
           | Sched.Job.Ok v -> string_of_int v
           | Sched.Job.Failed (Boom b) -> "boom:" ^ b
           | Sched.Job.Failed _ -> "fail"
           | Sched.Job.Timed_out -> "timeout")
         outcomes)
  in
  let w1 =
    Sched.Pool.with_pool ~jobs:1 (fun p ->
        render (Sched.Pool.run_all_outcomes ~retries:1 ~backoff:0.001 p (batch ())))
  in
  let w8 =
    Sched.Pool.with_pool ~jobs:8 (fun p ->
        render (Sched.Pool.run_all_outcomes ~retries:1 ~backoff:0.001 p (batch ())))
  in
  Alcotest.(check string) "outcomes identical at widths 1 and 8" w1 w8

let test_outcomes_validates_arguments () =
  Alcotest.check_raises "timeout must be positive"
    (Invalid_argument "Sched.Pool.run_all_outcomes: timeout must be positive")
    (fun () ->
      ignore
        (Sched.Pool.run_all_outcomes ~timeout:0. Sched.Pool.sequential
           [ Sched.Job.v ~id:"x" (fun () -> 1) ]));
  Alcotest.check_raises "retries must be >= 0"
    (Invalid_argument "Sched.Pool.run_all_outcomes: retries must be >= 0")
    (fun () ->
      ignore
        (Sched.Pool.run_all_outcomes ~retries:(-1) Sched.Pool.sequential
           [ Sched.Job.v ~id:"x" (fun () -> 1) ]))

(* ------------------------------------------------------------------ *)
(* Stats counters *)

let test_stats_counts_jobs_and_peak () =
  Sched.Pool.with_pool ~jobs:2 @@ fun pool ->
  let before = Sched.Pool.stats pool in
  Alcotest.(check int) "fresh pool ran nothing" 0 before.Sched.Pool.jobs_run;
  ignore
    (Sched.Pool.run_all pool
       (List.init 12 (fun i -> Sched.Job.v ~id:(string_of_int i) (fun () -> i))));
  ignore
    (Sched.Pool.run_all pool
       (List.init 5 (fun i -> Sched.Job.v ~id:(string_of_int i) (fun () -> i))));
  let st = Sched.Pool.stats pool in
  Alcotest.(check int) "jobs_run accumulates across batches" 17
    st.Sched.Pool.jobs_run;
  Alcotest.(check bool) "a backlog was observed" true (st.Sched.Pool.peak_queue >= 1);
  Alcotest.(check int) "no retries without supervision" 0 st.Sched.Pool.retries;
  Alcotest.(check int) "no timeouts without supervision" 0 st.Sched.Pool.timeouts

let test_stats_counts_retries_and_timeouts () =
  Sched.Pool.with_pool ~jobs:2 @@ fun pool ->
  let attempts = Atomic.make 0 in
  let outcomes =
    Sched.Pool.run_all_outcomes ~retries:2 ~backoff:0.001 pool
      [
        Sched.Job.v ~id:"flaky" (fun () ->
            if Atomic.fetch_and_add attempts 1 < 2 then raise (Boom "flaky");
            1);
      ]
  in
  (match outcomes with
  | [ Sched.Job.Ok 1 ] -> ()
  | _ -> Alcotest.fail "expected Ok after retries");
  let st = Sched.Pool.stats pool in
  Alcotest.(check int) "two retries counted" 2 st.Sched.Pool.retries;
  Alcotest.(check int) "every attempt counts as a job" 3 st.Sched.Pool.jobs_run;
  let release = Atomic.make false in
  (match
     Sched.Pool.run_all_outcomes ~timeout:0.1 pool
       [
         Sched.Job.v ~id:"hang" (fun () ->
             while not (Atomic.get release) do
               Unix.sleepf 0.01
             done);
       ]
   with
  | [ Sched.Job.Timed_out ] -> ()
  | _ -> Alcotest.fail "hung job must report Timed_out");
  Atomic.set release true;
  Alcotest.(check int) "timeout counted" 1 (Sched.Pool.stats pool).Sched.Pool.timeouts

(* ------------------------------------------------------------------ *)
(* The end-to-end property: parallel == sequential, byte for byte *)

let test_experiment_output_identical_parallel_vs_sequential () =
  let render pool =
    Sutil.Texttable.to_markdown
      (Harness.Security.table (Harness.Security.rng_security ?pool ~backend:Machine.Backend.reference ~trials_per_cell:2 ()))
  in
  let seq = render None in
  let par = Sched.Pool.with_pool ~jobs:4 (fun pool -> render (Some pool)) in
  Alcotest.(check string) "rendered table identical under --jobs 4" seq par

let test_diffval_identical_parallel_vs_sequential () =
  let report pool =
    Harness.Diffval.report_to_string
      (Harness.Diffval.check_progen ?pool ~seed:5L 6)
  in
  let seq = report None in
  let par = Sched.Pool.with_pool ~jobs:4 (fun pool -> report (Some pool)) in
  Alcotest.(check string) "diffval report identical under --jobs 4" seq par

let () =
  Alcotest.run "sched"
    [
      ( "ordering",
        [
          Alcotest.test_case "submission order" `Quick
            test_results_in_submission_order;
          Alcotest.test_case "pool reuse" `Quick test_pool_reusable_across_batches;
        ] );
      ( "exceptions",
        [
          Alcotest.test_case "first failure wins" `Quick
            test_first_failure_by_submission_order_wins;
          Alcotest.test_case "pool survives failure" `Quick
            test_pool_survives_a_failing_batch;
        ] );
      ( "sequential",
        [
          Alcotest.test_case "calling domain" `Quick
            test_sequential_runs_in_calling_domain;
          Alcotest.test_case "jobs=1 no domains" `Quick
            test_with_pool_jobs1_spawns_no_domains;
        ] );
      ( "seeds",
        [
          Alcotest.test_case "split_seed" `Quick
            test_split_seed_deterministic_and_keyed;
          Alcotest.test_case "seeded job" `Quick
            test_seeded_job_carries_derived_seed;
        ] );
      ( "stress",
        [
          Alcotest.test_case "failure in every position" `Quick
            test_raising_job_in_every_position;
          Alcotest.test_case "closed pool" `Quick test_closed_pool_still_runs_batches;
          Alcotest.test_case "width clamp" `Quick test_jobs_clamped_to_max;
          Alcotest.test_case "nesting rejected" `Quick
            test_nested_submission_rejected;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "ok and failed mixed" `Quick
            test_outcomes_ok_and_failed_mixed;
          Alcotest.test_case "retry succeeds" `Quick
            test_outcomes_retry_eventually_succeeds;
          Alcotest.test_case "retries exhausted" `Quick
            test_outcomes_retries_exhausted_reports_last_exn;
          Alcotest.test_case "timeout isolates" `Quick
            test_outcomes_timeout_does_not_lose_other_results;
          Alcotest.test_case "deterministic across widths" `Quick
            test_outcomes_deterministic_across_widths;
          Alcotest.test_case "argument validation" `Quick
            test_outcomes_validates_arguments;
        ] );
      ( "stats",
        [
          Alcotest.test_case "jobs and peak queue" `Quick
            test_stats_counts_jobs_and_peak;
          Alcotest.test_case "retries and timeouts" `Quick
            test_stats_counts_retries_and_timeouts;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "rng_security table" `Quick
            test_experiment_output_identical_parallel_vs_sequential;
          Alcotest.test_case "diffval report" `Quick
            test_diffval_identical_parallel_vs_sequential;
        ] );
    ]
