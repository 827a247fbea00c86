(* The four workloads.  Each one drives the system from outside, through
   the same public entry points its users call, and knows three things:

   - how to set itself up (timed, repeated: [setup_s] is the median);
   - one unit of timed work, returning an untimed check against an
     oracle the benchmark computes itself for the run's seed;
   - a traced replica of that unit, one call level down, whose spans
     give the per-layer numbers and whose observables must equal the
     untimed unit's. *)

type ctx = {
  seed : int64;
  quick : bool;
  corrupt : bool;  (** deliberately wrong oracle: the error path's test *)
  workdir : string;
  pool : Sched.Pool.t;
}

type checked = {
  ops : int;  (** programs or sessions completed *)
  failed : int;
  notes : string list;  (** one line per failure *)
  observable : string;
      (** canonical rendering of the unit's deterministic result; equal
          across units and between the untraced and traced round *)
  values : (string * float) list;
      (** deterministic per-unit values (instructions, ledger metrics) *)
}

type prepared = {
  run_unit : unit -> unit -> checked;
      (** the timed unit; the closure it returns checks it, untimed *)
  traced : unit -> checked * (string * float) list;
      (** traced replica and the layer counts only it can see *)
}

type ('o, 'f) spec = {
  name : string;
  why : string;
  rounds : int;
  oracle : ctx -> 'o;  (** expected results, computed first and untimed *)
  setup : ctx -> 'f;  (** timed; files go under [ctx.workdir] *)
  prepare : ctx -> 'o -> 'f -> prepared;
}

type t = W : ('o, 'f) spec -> t

let name (W s) = s.name
let why (W s) = s.why

let derive ctx id = Sutil.Simrng.split_seed ~root:ctx.seed ~id
let config = Smokestack.Config.default
let bytecode () = Machine.Backend.find Machine.Backend.Bytecode
let hex s = Digest.to_hex (Digest.string s)

let ir_instrs (p : Ir.Prog.t) =
  List.fold_left
    (fun acc (f : Ir.Func.t) ->
      List.fold_left
        (fun acc (b : Ir.Func.block) -> acc + List.length b.instrs + 1)
        acc f.blocks)
    0 p.funcs

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.is_directory d -> ()
  end

let fresh_dir =
  let n = ref 0 in
  fun ctx tag ->
    incr n;
    Filename.concat ctx.workdir (Printf.sprintf "%s-%d" tag !n)

(* The submitting domain's time in the pool, its own jobs included: the
   pool's hand-off and idle time show as this span's self time. *)
let wave pool jobs = Span.record "sched.wave" (fun () -> Sched.Pool.run_all pool jobs)

(* Count the Smokestack runtime's intrinsic calls on a state. *)
let count_intrinsics (st : Machine.Exec.state) counter =
  st.on_event <-
    Some (function Machine.Exec.Ev_intrinsic _ -> incr counter | _ -> ())

(* ------------------------------------------------------------------ *)
(* run-corpus: the smokestackc run --harden pipeline over Apps.Spec.all *)

type corpus_prog = {
  w : Apps.Spec.workload;
  eseed : int64;  (** entropy seed of the hardened run *)
  hseed : int64;  (** P-BOX row-shuffle seed *)
  base_cycles : float;  (** unhardened VM cycles, for vm_overhead_pct *)
}

(* The corpus harness's input framing: one 48-byte message per read. *)
let chunked input =
  let remaining = ref (Harness.Workbench.chunks_of_input input) in
  fun _ max ->
    match !remaining with
    | [] -> ""
    | c :: rest ->
        remaining := rest;
        if String.length c > max then String.sub c 0 max else c

let fuel = 400_000_000

(* Two short programs for --quick: one SPEC-like (so vm_overhead_pct is
   defined) and one I/O loop (so read_input is exercised). *)
let quick_corpus = [ "mcf"; "proftpd-io" ]

let corpus ctx =
  if ctx.quick then List.filter_map Apps.Spec.find quick_corpus else Apps.Spec.all

let corpus_setup ctx =
  let backend = bytecode () in
  List.map
    (fun (w : Apps.Spec.workload) ->
      let st = Machine.Exec.prepare (Minic.Driver.compile w.source) in
      Machine.Exec.set_input st (chunked w.input);
      let _, stats = backend.run ~fuel st in
      {
        w;
        eseed = derive ctx ("run-corpus/entropy/" ^ w.wname);
        hseed = derive ctx ("run-corpus/harden/" ^ w.wname);
        base_cycles = stats.cycles;
      })
    (corpus ctx)

type corpus_run = {
  outcome : Machine.Exec.outcome;
  stats : Machine.Exec.stats;
  pbox_bytes : int;
}

(* Reference interpreter on the unhardened program: the expected exit
   code and output of every hardened run. *)
let corpus_oracle ctx =
  List.mapi
    (fun i (w : Apps.Spec.workload) ->
      let st = Machine.Exec.prepare (Minic.Driver.compile w.source) in
      Machine.Exec.set_input st (chunked w.input);
      let outcome, stats = Machine.Exec.run ~fuel st in
      let output =
        if ctx.corrupt && i = 0 then stats.output ^ "corrupted" else stats.output
      in
      (outcome, output))
    (corpus ctx)

let corpus_check progs expected runs =
  let failures =
    List.concat
      (List.map2
         (fun (p, (exp_outcome, exp_output)) r ->
           let bad =
             match r.outcome with
             | Machine.Exec.Exit _ when r.outcome <> exp_outcome ->
                 Some "exit code differs from the reference interpreter"
             | Machine.Exec.Exit _ when r.stats.output <> exp_output ->
                 Some "output differs from the reference interpreter"
             | Machine.Exec.Exit _ -> None
             | o -> Some (Machine.Exec.outcome_to_string o)
           in
           Option.to_list
             (Option.map (Printf.sprintf "run-corpus %s: %s" p.w.wname) bad))
         (List.combine progs expected)
         runs)
  in
  let ratios =
    List.filter_map
      (fun (p, r) ->
        if p.w.kind = `Spec then Some (r.stats.cycles /. p.base_cycles) else None)
      (List.combine progs runs)
  in
  {
    ops = List.length runs;
    failed = List.length failures;
    notes = failures;
    observable =
      String.concat ";"
        (List.map2
           (fun p r ->
             Printf.sprintf "%s|%s|%h|%d|%s" p.w.wname
               (Machine.Exec.outcome_to_string r.outcome)
               r.stats.cycles r.stats.instr_count (hex r.stats.output))
           progs runs);
    values =
      [
        ("instrs", float_of_int (List.fold_left (fun a r -> a + r.stats.instr_count) 0 runs));
        ("vm_overhead_pct", (Sutil.Stats.geomean ratios -. 1.) *. 100.);
        ("pbox_kb", float_of_int (List.fold_left (fun a r -> a + r.pbox_bytes) 0 runs) /. 1024.);
      ];
  }

let corpus_prepare _ctx expected progs =
  let backend = bytecode () in
  let run_unit () =
    let runs =
      List.map
        (fun p ->
          let prog = Minic.Driver.compile p.w.source in
          let h = Smokestack.Harden.harden ~seed:p.hseed config prog in
          let st =
            Smokestack.Harden.prepare ~entropy:(Crypto.Entropy.create ~seed:p.eseed) h
          in
          Machine.Exec.set_input st (chunked p.w.input);
          let outcome, stats = backend.run ~fuel st in
          { outcome; stats; pbox_bytes = Smokestack.Harden.pbox_bytes h })
        progs
    in
    fun () -> corpus_check progs expected runs
  in
  let traced () =
    let intrinsics = ref 0 and ir = ref 0 and hard_ms = ref 0. and base_ms = ref 0. in
    let one req p =
      let sp name f = Span.record ~req name f in
      let ast = sp "minic.parse" (fun () -> Minic.Parser.parse p.w.source) in
      let prog = sp "minic.lower" (fun () -> Minic.Lower.lower ast) in
      ir := !ir + ir_instrs prog;
      let h =
        sp "core.harden" (fun () ->
            Smokestack.Harden.harden ~seed:p.hseed ~validate:false config prog)
      in
      (match sp "analysis.validate" (fun () -> Analysis.Validate.result ~original:prog h) with
      | Ok () -> ()
      | Error e -> failwith ("validator rejected " ^ p.w.wname ^ ": " ^ e));
      let st = sp "machine.prepare" (fun () -> Machine.Exec.prepare h.prog) in
      sp "core.runtime_install" (fun () ->
          Smokestack.Runtime.install h.config ~pbox:h.pbox
            ~entropy:(Crypto.Entropy.create ~seed:p.eseed) st);
      ignore (Span.record ~req ~dup:true "engine.compile" (fun () -> Engine.Compile.compile st));
      count_intrinsics st intrinsics;
      Machine.Exec.set_input st (chunked p.w.input);
      let (outcome, stats), secs = Span.timed (fun () -> sp "engine.run" (fun () -> backend.run ~fuel st)) in
      hard_ms := !hard_ms +. (secs *. 1e3);
      (prog, { outcome; stats; pbox_bytes = Smokestack.Harden.pbox_bytes h })
    in
    let runs =
      List.mapi
        (fun req p ->
          let prog, r = Span.record ~req "program" (fun () -> one req p) in
          (* The same program unhardened, under the same event hook,
             prices the runtime; it is not the workload's own work, so
             it is marked duplicate. *)
          Span.record ~req ~dup:true "engine.run_unhardened" (fun () ->
              let base = Machine.Exec.prepare prog in
              count_intrinsics base (ref 0);
              Machine.Exec.set_input base (chunked p.w.input);
              let _, secs = Span.timed (fun () -> backend.run ~fuel base) in
              base_ms := !base_ms +. (secs *. 1e3));
          r)
        progs
    in
    let sumf f = List.fold_left (fun a r -> a +. f r) 0. runs in
    ( corpus_check progs expected runs,
      [
        ("minic.ir_instrs", float_of_int !ir);
        ("core.intrinsic_calls", float_of_int !intrinsics);
        ("core.runtime_overhead_pct", ((!hard_ms /. !base_ms) -. 1.) *. 100.);
        ("core.pbox_kb", sumf (fun r -> float_of_int r.pbox_bytes) /. 1024.);
        ("engine.instrs", sumf (fun r -> float_of_int r.stats.instr_count));
        ("engine.mcycles", sumf (fun r -> r.stats.cycles) /. 1e6);
      ] )
  in
  { run_unit; traced }

let run_corpus =
  W
    {
      name = "run-corpus";
      why =
        "14 corpus programs compiled, hardened, validated, prepared and run \
         on the bytecode engine: execution and the Smokestack runtime \
         dominate";
      rounds = 6;
      oracle = corpus_oracle;
      setup = corpus_setup;
      prepare = corpus_prepare;
    }

(* ------------------------------------------------------------------ *)
(* Campaigns: Store.Campaign.run over a seeded Progen range *)

(* Store.Campaign's own layout-draw seed and key convention; the traced
   replica must address the same store entries. *)
let campaign_harden_seed = 3L

let campaign_config ctx =
  Store.Campaign.config
    ~seed:(Int64.logand (derive ctx "campaign/progen") 0xFFFF_FFFFL)
    ~exec_seed:(Int64.logand (derive ctx "campaign/exec") 0xFFFF_FFFFL)
    ~harden:config ~engine:Machine.Backend.Bytecode
    ~count:(if ctx.quick then 20 else 600)
    ()

let classes (r : Store.Campaign.report) =
  [
    ("exit 0", r.exited_zero);
    ("exit nonzero", r.exited_nonzero);
    ("faulted", r.faulted);
    ("detected", r.detected);
    ("fuel exhausted", r.fuel_exhausted);
  ]

(* The unhardened campaign of the same range on the reference
   interpreter: hardening must not change any program's outcome. *)
let campaign_oracle ctx =
  let cfg = campaign_config ctx in
  let r =
    Store.Campaign.run ~pool:ctx.pool ~store:(Store.Cache.in_memory ())
      { cfg with Store.Campaign.harden = None; engine = Machine.Backend.Reference }
  in
  let cls = classes r in
  if ctx.corrupt then List.mapi (fun i (n, c) -> (n, if i = 0 then c + 1 else c)) cls
  else cls

let campaign_observable (r : Store.Campaign.report) =
  Printf.sprintf "%s|instrs=%d|calls=%d|deepest=%d"
    (String.concat "," (List.map (fun (n, c) -> Printf.sprintf "%s=%d" n c) (classes r)))
    r.total_instrs r.total_calls r.deepest_call

let campaign_check ~expected ?cold_digest (r : Store.Campaign.report) =
  let diffs =
    List.filter_map
      (fun ((n, want), (_, got)) ->
        if want = got then None
        else
          Some
            (abs (want - got), Printf.sprintf "campaign %s: %d, reference %d" n got want))
      (List.combine expected (classes r))
  in
  let digest_failed =
    match cold_digest with Some d when d <> r.digest -> r.programs | _ -> 0
  in
  let all =
    List.map snd diffs
    @
    if digest_failed > 0 then [ "campaign-warm: digest differs from the cold campaign's" ]
    else []
  in
  {
    ops = r.programs;
    (* each misclassified program moves one count between two classes *)
    failed =
      min r.programs
        (((List.fold_left (fun a (d, _) -> a + d) 0 diffs + 1) / 2) + digest_failed);
    notes = all;
    observable = campaign_observable r;
    values = [];
  }

(* One level below Store.Campaign.run: the same waves of pool jobs, each
   keying, looking up and (on a miss) compiling, hardening, preparing
   and running one program. *)
let campaign_traced ctx (cfg : Store.Campaign.config) dir =
  let store = Span.record "store.open" (fun () -> Store.Cache.open_disk dir) in
  let backend = bytecode () in
  let hcfg = Option.get cfg.harden in
  let intrinsics = Atomic.make 0 and ir = Atomic.make 0 in
  (* returns the program's observables and whether it ran *)
  let one pseed source =
    let req = Int64.to_int (Int64.sub pseed cfg.seed) in
    let sp name f = Span.record ~req name f in
    let key =
      sp "store.key" (fun () ->
          Store.Key.of_source ~source_text:source ~config:cfg.harden
            ~engine:cfg.engine ~seed:cfg.exec_seed
            ~extra:
              (Printf.sprintf "campaign;fuel=%d;hseed=%Ld" cfg.fuel
                 campaign_harden_seed)
            ())
    in
    match
      sp "store.find" (fun () ->
          Option.bind (Store.Cache.find store key) Store.Entry.exec_of_entry)
    with
    | Some e -> (e, false)
    | None ->
        let ast = sp "minic.parse" (fun () -> Minic.Parser.parse source) in
        let prog = sp "minic.lower" (fun () -> Minic.Lower.lower ast) in
        ignore (Atomic.fetch_and_add ir (ir_instrs prog));
        let h =
          sp "core.harden" (fun () ->
              Smokestack.Harden.harden ~seed:campaign_harden_seed ~validate:false
                hcfg prog)
        in
        let st = sp "machine.prepare" (fun () -> Machine.Exec.prepare h.prog) in
        sp "core.runtime_install" (fun () ->
            Smokestack.Runtime.install h.config ~pbox:h.pbox
              ~entropy:(Crypto.Entropy.create ~seed:(Int64.add cfg.exec_seed pseed))
              st);
        ignore
          (Span.record ~req ~dup:true "engine.compile" (fun () ->
               Engine.Compile.compile st));
        let n = ref 0 in
        count_intrinsics st n;
        let run = sp "engine.run" (fun () -> backend.run ~fuel:cfg.fuel st) in
        ignore (Atomic.fetch_and_add intrinsics !n);
        let e =
          Store.Entry.exec_of_run ~pbox_bytes:(Smokestack.Harden.pbox_bytes h) run
        in
        sp "store.put" (fun () -> Store.Cache.put store key (Store.Entry.exec_entry e));
        (e, true)
  in
  let rec waves acc first =
    let n = min cfg.shard (cfg.count - first) in
    if n <= 0 then List.rev acc
    else
      let sources =
        List.init n (fun i ->
            let pseed = Int64.add cfg.seed (Int64.of_int (first + i)) in
            ( pseed,
              Span.record ~req:(first + i) "minic.progen" (fun () ->
                  Minic.Progen.generate ~seed:pseed) ))
      in
      let submit = Span.now () in
      let jobs =
        List.map
          (fun (pseed, source) ->
            Sched.Job.v ~id:(Printf.sprintf "campaign/%Ld" pseed) ~seed:pseed
              (fun () ->
                let wait_ns = Int64.sub (Span.now ()) submit in
                Span.record
                  ~req:(Int64.to_int (Int64.sub pseed cfg.seed))
                  ~wait_ns "sched.job"
                  (fun () -> one pseed source)))
          sources
      in
      waves (List.rev_append (wave ctx.pool jobs) acc) (first + n)
  in
  let results = waves [] 0 in
  let execs = List.map fst results in
  let ran = List.filter_map (fun (e, fresh) -> if fresh then Some e else None) results in
  let count p = List.length (List.filter p execs) in
  let sum f l = List.fold_left (fun a (e : Store.Entry.exec) -> a + f e) 0 l in
  let failed_with p (e : Store.Entry.exec) =
    e.exit_code = None && String.starts_with ~prefix:p e.outcome
  in
  let report : Store.Campaign.report =
    {
      programs = List.length execs;
      exited_zero = count (fun e -> e.exit_code = Some 0L);
      exited_nonzero =
        count (fun e -> match e.exit_code with Some c -> c <> 0L | None -> false);
      faulted = count (failed_with "fault");
      detected = count (failed_with "attack detected");
      fuel_exhausted =
        count (fun e ->
            e.exit_code = None
            && not (failed_with "fault" e || failed_with "attack detected" e));
      total_instrs = sum (fun e -> e.stats.instr_count) execs;
      total_calls = sum (fun e -> e.stats.call_count) execs;
      deepest_call = List.fold_left (fun a (e : Store.Entry.exec) -> max a e.stats.max_depth) 0 execs;
      digest = "";
    }
  in
  ( report,
    [
      ("minic.ir_instrs", float_of_int (Atomic.get ir));
      ("core.intrinsic_calls", float_of_int (Atomic.get intrinsics));
      ( "core.pbox_kb",
        float_of_int (sum (fun e -> Option.value ~default:0 e.pbox_bytes) ran) /. 1024. );
      ("engine.instrs", float_of_int (sum (fun e -> e.stats.instr_count) ran));
      ( "engine.mcycles",
        List.fold_left (fun a (e : Store.Entry.exec) -> a +. e.stats.cycles) 0. ran /. 1e6 );
      ( "store.hit_rate",
        float_of_int (List.length execs - List.length ran)
        /. float_of_int (max 1 (List.length execs)) );
      ("store.evicted", float_of_int (Store.Cache.stats store).evicted);
    ] )

let campaign_cold =
  W
    {
      name = "campaign-cold";
      why =
        "600 short Progen programs per campaign into a fresh disk store: \
         front end, hardening, prepare, store writes and the pool dominate, \
         execution barely shows";
      rounds = 5;
      (* A warm-up campaign over a disjoint tenth of the range, so lazy
         initialization and heap growth finish before timing. *)
      setup =
        (fun ctx ->
          let cfg = campaign_config ctx in
          let warm =
            { cfg with seed = Int64.add cfg.seed 1_000_000L; count = max 1 (cfg.count / 10) }
          in
          let dir = fresh_dir ctx "warmup" in
          ignore (Store.Campaign.run ~pool:ctx.pool ~store:(Store.Cache.open_disk dir) warm);
          rm_rf dir;
          cfg);
      oracle = campaign_oracle;
      prepare =
        (fun ctx expected cfg ->
          let run_unit () =
            let dir = fresh_dir ctx "cold" in
            let r = Store.Campaign.run ~pool:ctx.pool ~store:(Store.Cache.open_disk dir) cfg in
            fun () ->
              rm_rf dir;
              campaign_check ~expected r
          in
          let traced () =
            let r, layers = campaign_traced ctx cfg (fresh_dir ctx "cold-traced") in
            (campaign_check ~expected r, layers)
          in
          { run_unit; traced });
    }

type warm_fixture = { wcfg : Store.Campaign.config; dir : string; cold_digest : string }

let campaign_warm =
  W
    {
      name = "campaign-warm";
      why =
        "the same campaign replayed over a filled store: every lookup hits, \
         so key derivation and store reads dominate, with no compile or \
         execution";
      rounds = 5;
      setup =
        (fun ctx ->
          let wcfg = campaign_config ctx in
          let dir = fresh_dir ctx "warm" in
          let r = Store.Campaign.run ~pool:ctx.pool ~store:(Store.Cache.open_disk dir) wcfg in
          { wcfg; dir; cold_digest = r.digest });
      oracle = campaign_oracle;
      prepare =
        (fun ctx expected f ->
          let run_unit () =
            let store = Store.Cache.open_disk f.dir in
            let r = Store.Campaign.run ~pool:ctx.pool ~store f.wcfg in
            fun () ->
              let c = campaign_check ~expected ~cold_digest:f.cold_digest r in
              let misses = (Store.Cache.stats store).misses in
              if misses = 0 then c
              else
                {
                  c with
                  failed = c.failed + misses;
                  notes = Printf.sprintf "campaign-warm: %d store misses" misses :: c.notes;
                }
          in
          let traced () =
            let r, layers = campaign_traced ctx f.wcfg f.dir in
            (campaign_check ~expected r, layers)
          in
          { run_unit; traced });
    }

(* ------------------------------------------------------------------ *)
(* serve-mixed: Harness.Serve.run with the default traffic mix *)

let serve_config ctx =
  let d = Harness.Serve.default in
  {
    d with
    Harness.Serve.traffic =
      {
        d.traffic with
        root = derive ctx "serve/traffic";
        sessions = (if ctx.quick then 60 else d.traffic.sessions);
      };
  }

let serve_check ~scheduled (s : Server.Metrics.summary) =
  let notes =
    (if s.batch_mismatches > 0 then
       [ Printf.sprintf "serve-mixed: %d served verdicts differ from batch" s.batch_mismatches ]
     else [])
    @
    if s.dropped > 0 then [ Printf.sprintf "serve-mixed: %d sessions dropped" s.dropped ]
    else []
  in
  {
    ops = scheduled;
    failed = s.batch_mismatches + s.dropped;
    notes;
    observable =
      Printf.sprintf "served=%d|shed=%d|rejected=%d|dropped=%d|checked=%d|mismatches=%d|p99=%h"
        s.served s.shed s.rejected s.dropped s.batch_checked s.batch_mismatches s.p99;
    values =
      [
        ("serve_p99_mcycles", s.p99 /. 1e6);
        ("server.shed_rate", s.shed_rate);
        ("server.batch_checked", float_of_int s.batch_checked);
        ("server.batch_mismatches", float_of_int s.batch_mismatches);
        ("server.dropped", float_of_int s.dropped);
      ];
  }

(* One level below Harness.Serve.run: Dispatch.execute's tenant builds
   and shard jobs, then admission and metrics. *)
let serve_traced ctx (cfg : Harness.Serve.config) =
  let backend = bytecode () in
  let tenants = Server.Tenant.fleet ~defense:cfg.defense ~root:cfg.traffic.root () in
  let applied = Hashtbl.create 16 in
  List.iter
    (fun (t : Server.Tenant.t) ->
      Hashtbl.replace applied t.name
        (Span.record ~req:t.id "server.tenant_prepare" (fun () -> Server.Tenant.prepare t)))
    tenants;
  let specs =
    Span.record "server.traffic" (fun () -> Server.Traffic.generate cfg.traffic tenants)
  in
  let rec shards = function
    | [] -> []
    | l ->
        let n = max 1 cfg.dispatch.shard in
        List.filteri (fun i _ -> i < n) l :: shards (List.filteri (fun i _ -> i >= n) l)
  in
  let submit = Span.now () in
  let jobs =
    List.mapi
      (fun i shard ->
        Sched.Job.v ~id:(Printf.sprintf "serve/shard-%04d" i) (fun () ->
            let wait_ns = Int64.sub (Span.now ()) submit in
            Span.record ~req:i ~wait_ns "sched.job" (fun () ->
                List.map
                  (fun (s : Server.Session.spec) ->
                    Span.record ~req:s.sid
                      ("server.session." ^ Server.Session.kind_label s.kind)
                      (fun () ->
                        Server.Session.run ~backend
                          ~applied:(Hashtbl.find applied s.tenant.name) s))
                  shard)))
      (shards specs)
  in
  let executed = List.concat (wave ctx.pool jobs) in
  let d =
    Span.record "server.admit" (fun () -> Server.Dispatch.admit cfg.dispatch executed)
  in
  let s = Span.record "server.metrics" (fun () -> Server.Metrics.of_dispatch d) in
  let pbox =
    Hashtbl.fold (fun _ (a : Defenses.Defense.applied) acc -> acc + a.pbox_bytes) applied 0
  in
  (serve_check ~scheduled:(List.length specs) s, [ ("core.pbox_kb", float_of_int pbox /. 1024.) ])

let serve_mixed =
  W
    {
      name = "serve-mixed";
      why =
        "1300 short sessions over 9 hardened tenants with 12% attacks and 6% \
         chaos: the only workload that exercises the server layer";
      rounds = 5;
      (* A warm-up run over a tenth of the schedule, which builds the
         fleet, so lazy initialization and heap growth finish before
         timing. *)
      setup =
        (fun ctx ->
          let cfg = serve_config ctx in
          let warm =
            {
              cfg with
              traffic = { cfg.traffic with sessions = max 1 (cfg.traffic.sessions / 10) };
            }
          in
          ignore (Harness.Serve.run ~pool:ctx.pool ~backend:(bytecode ()) ~config:warm ());
          cfg);
      (* the oracle is in-band: every attack session re-runs its batch
         verdict on the reference interpreter *)
      oracle = ignore;
      prepare =
        (fun ctx () cfg ->
          let backend = bytecode () in
          let run_unit () =
            let t = Harness.Serve.run ~pool:ctx.pool ~backend ~config:cfg () in
            fun () ->
              let b, a, c = t.scheduled in
              serve_check ~scheduled:(b + a + c) t.summary
          in
          { run_unit; traced = (fun () -> serve_traced ctx cfg) });
    }

let all = [ run_corpus; campaign_cold; campaign_warm; serve_mixed ]
let find n = List.find_opt (fun w -> name w = n) all
