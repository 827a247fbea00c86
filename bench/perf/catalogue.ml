(* Every metric the benchmark prints: name, unit, direction and, for the
   end-to-end metrics, the bound by which a change may worsen the
   baseline median before it counts as a regression.  BENCHMARK.json
   repeats the metrics every workload reports; the smoke test checks
   that the two agree. *)

type better = Lower | Higher

let better_to_string = function Lower -> "lower" | Higher -> "higher"

type e2e = { name : string; unit_ : string; better : better; bound : float }

let e2e =
  let m name unit_ better bound = { name; unit_; better; bound } in
  [
    (* every workload *)
    m "setup_s" "s" Lower 0.25;
    m "peak_rss_mb" "MB" Lower 0.25;
    m "ops_per_s" "1/s" Higher 0.25;
    m "error_rate" "fraction" Lower 0.;
    (* run-corpus: the paper's Figure 3 and 4 ledger *)
    m "exec_mips" "Minstr/s" Higher 0.25;
    m "vm_overhead_pct" "%" Lower 0.01;
    m "pbox_kb" "KiB" Lower 0.01;
    (* serve-mixed, in virtual time *)
    m "serve_p99_mcycles" "Mcycles" Lower 0.01;
  ]

(* The end-to-end metrics every workload reports; error_rate is the
   result line's failed/attempted. *)
let universal = [ "setup_s"; "peak_rss_mb"; "ops_per_s" ]

let find_e2e n = List.find_opt (fun m -> m.name = n) e2e

(* Per-layer metrics, reported by every traced workload (0 where the
   workload does not use the layer).  [_ms] totals cover one traced
   unit of work. *)
let layers =
  let ms n = (n, "ms", Lower) and count n = (n, "count", Lower) in
  [
    ms "minic.progen_ms"; ms "minic.parse_ms"; ms "minic.lower_ms";
    count "minic.ir_instrs";
    ms "core.harden_ms"; ms "core.runtime_install_ms"; ("core.pbox_kb", "KiB", Lower);
    count "core.intrinsic_calls"; ("core.runtime_overhead_pct", "%", Lower);
    ("core.vm_overhead_pct", "%", Lower);
    ms "analysis.validate_ms";
    ms "machine.prepare_ms"; count "machine.prepare_count";
    ("machine.prepare_alloc_mb", "MB", Lower);
    ms "engine.compile_ms"; ms "engine.run_ms"; count "engine.instrs";
    ("engine.mips", "Minstr/s", Higher); ("engine.mcycles", "Mcycles", Lower);
    ms "store.key_ms"; ms "store.find_ms"; count "store.find_count";
    ("store.hit_rate", "fraction", Higher); ms "store.put_ms"; count "store.put_count";
    count "store.evicted";
    count "sched.jobs"; ms "sched.queue_wait_ms.p50"; ms "sched.busy_ms";
    ("sched.utilization", "fraction", Higher); count "sched.retries"; count "sched.timeouts";
    ms "server.tenant_prepare_ms"; ms "server.traffic_ms";
    ms "server.session_ms.benign.p50"; count "server.session_ms.benign.count";
    ms "server.session_ms.attack.p50"; count "server.session_ms.attack.count";
    ms "server.session_ms.chaos.p50"; count "server.session_ms.chaos.count";
    ms "server.admit_ms"; ms "server.metrics_ms"; ("server.shed_rate", "fraction", Lower);
    count "server.batch_checked"; count "server.batch_mismatches"; count "server.dropped";
    ("server.p99_mcycles", "Mcycles", Lower);
    ("gc.alloc_mb", "MB", Lower); count "gc.minor_collections"; count "gc.major_collections";
    ("trace.overhead_pct", "%", Lower); ("trace.coverage_pct", "%", Higher);
    count "trace.spans";
  ]

(* Tail percentiles carry their real name (p75 ... p99.9), so they are
   not in the fixed list; they are span latencies in ms. *)
let layer_unit n =
  match List.find_opt (fun (m, _, _) -> m = n) layers with
  | Some (_, u, _) -> u
  | None -> "ms"
