let chunk_size = 48

let chunks_of_input input =
  let rec split s =
    if String.length s <= chunk_size then [ s ]
    else
      String.sub s 0 chunk_size
      :: split (String.sub s chunk_size (String.length s - chunk_size))
  in
  if String.equal input "" then [] else split input

(* One process run of the workload, seed 1.  A workload crash means
   the harness itself is broken, and the experiment must not silently
   absorb that. *)
let run ~backend (applied : Defenses.Defense.applied) (w : Apps.Spec.workload) =
  let outcome, stats =
    Apps.Runner.run_chunks ~backend ~fuel:400_000_000 applied ~seed:1L
      ~chunks:(chunks_of_input w.input)
  in
  (match outcome with
  | Machine.Exec.Exit 0L -> ()
  | o ->
      failwith
        (Printf.sprintf "Harness.Workbench: workload %s under %s: %s" w.wname
           (Defenses.Defense.name applied.defense)
           (Machine.Exec.outcome_to_string o)));
  (outcome, stats)

let force_programs workloads =
  List.iter
    (fun (w : Apps.Spec.workload) -> ignore (Lazy.force w.program))
    workloads

(* Workload stats are served from a Store cache rather than an ad-hoc
   hashtable: the key is content-addressed over the workload source,
   the hardening fingerprint, the engine *kind* (the registry identity,
   not the display label — without it a reference-engine result could
   be served to a bytecode-engine comparison), the run seed (always 1),
   and a digest of the input bytes.  Store access is mutex-guarded
   inside Cache, so parallel Sched jobs share the memo; the run itself happens
   unlocked, and since stats are deterministic per key, two jobs racing
   on a miss waste one run but can never produce a wrong or
   order-dependent answer.  Only clean [run]s are ever stored (run
   raises otherwise), so a cached entry never masks a workload crash. *)
let shared_store = Store.Cache.in_memory ()

let workbench_key ~config ~backend (w : Apps.Spec.workload) =
  Store.Key.of_source ~source_text:w.source ~config
    ~engine:backend.Machine.Backend.kind ~seed:1L
    ~extra:
      (Printf.sprintf "workbench;input=%s;hseed=3" (Store.Hash.hex w.input))
    ()

let baseline ~backend (w : Apps.Spec.workload) =
  let key = workbench_key ~config:None ~backend w in
  let exec =
    Store.Cache.memo shared_store key ~encode:Store.Entry.exec_entry
      ~decode:Store.Entry.exec_of_entry (fun () ->
        let applied =
          Defenses.Defense.apply Defenses.Defense.No_defense
            (Lazy.force w.program)
        in
        Store.Entry.exec_of_run (run ~backend applied w))
  in
  exec.Store.Entry.stats

let smokestack_stats ~backend config (w : Apps.Spec.workload) =
  let key = workbench_key ~config:(Some config) ~backend w in
  let exec =
    Store.Cache.memo shared_store key ~encode:Store.Entry.exec_entry
      ~decode:Store.Entry.exec_of_entry (fun () ->
        let applied =
          Defenses.Defense.apply ~seed:3L
            (Defenses.Defense.Smokestack config)
            (Lazy.force w.program)
        in
        Store.Entry.exec_of_run ~pbox_bytes:applied.pbox_bytes
          (run ~backend applied w))
  in
  (exec.Store.Entry.stats, Option.value ~default:0 exec.Store.Entry.pbox_bytes)
