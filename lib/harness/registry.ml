type outcome = { output : Output.t; invariants : (string * bool) list }

type entry = {
  id : string;
  key : string;
  title : string;
  claim : string;
  run : Sched.Pool.t -> Machine.Backend.t -> outcome;
}

let outcome ?(invariants = []) output = { output; invariants }
let pipe name title tbl = Output.table ~form:Output.Pipe name title tbl

(* ------------------------------------------------------------------ *)
(* Runners.  Table I and the chaos matrix pin their engines (the
   reference interpreter; both engines, cell by cell), so they ignore
   the backend they are handed. *)

let table1 pool (_ : Machine.Backend.t) =
  let tbl = Randrate.table (Randrate.run ~pool ()) in
  outcome [ pipe "table1" "Table I: source of randomness (cycles per 64-bit draw)" tbl ]

let fig3 pool backend =
  let t = Overhead.run ~pool ~backend () in
  outcome
    [
      pipe "fig3" "Figure 3: % runtime overhead (SPEC-like + I/O workloads)" (Overhead.table t);
      Output.text "Worst I/O-bound overhead measured: %s (paper: 6%%)."
        (Sutil.Texttable.fmt_pct t.io_worst);
    ]

let fig4 pool backend =
  let tbl = Memov.table (Memov.run ~pool ~backend ()) in
  outcome [ pipe "fig4" "Figure 4: % memory overhead (max-RSS proxy)" tbl ]

let security name run pool backend =
  let t : Security.t = run pool backend in
  outcome [ pipe name t.title (Security.table t) ]

let ablation pool backend =
  let tbl = Ablation.table (Ablation.run ~pool ~backend ()) in
  outcome [ pipe "ablation" "E7: P-BOX optimization ablation" tbl ]

let brute pool backend =
  let tbl = Security.brute_table (Security.brute ~pool ~backend ()) in
  outcome [ pipe "brute" "E8: brute-force attempts until the librelp exploit lands" tbl ]

(* E9: the librelp exploit needs the guessed allNames-to-keyPtr
   DISTANCE to match the drawn one (and to be physically reachable):
   different (allNames, keyPtr) pairs giving the same difference all
   work, so the right prediction is the collision probability of the
   distance distribution restricted to reachable distances. *)
let entropy (_ : Sched.Pool.t) backend =
  let prog = Lazy.force Apps.Librelp.program in
  let hardened = Smokestack.Harden.harden Smokestack.Config.default prog in
  let binding fname = Option.get (Smokestack.Pbox.binding hardened.pbox fname) in
  let sample_offsets fname idx n seed =
    let dyn = Option.get (Smokestack.Pbox.dyn_of hardened.pbox (binding fname)) in
    let rng = Sutil.Simrng.create ~seed in
    Array.init n (fun _ ->
        (Smokestack.Runtime.dynamic_offsets_for_draw dyn (Sutil.Simrng.next_u64 rng)).(idx))
  in
  let n = 8192 in
  let callee = sample_offsets "relpTcpChkPeerName" 0 n 11L in
  let caller = sample_offsets "relpTcpLstnInit" 2 n 12L in
  (* slab gap from the binary, as the attacker computes it *)
  let rows =
    Attacks.Layout.chain hardened.prog [ "main"; "relpTcpLstnInit"; "relpTcpChkPeerName" ]
  in
  let slab_gap =
    Option.get
      (Attacks.Layout.distance rows
         ~from_:("relpTcpChkPeerName", "__ss_total")
         ~to_:("relpTcpLstnInit", "__ss_total"))
  in
  let reachable d = d > 4096 && d - 2047 <= 4095 in
  let dist_counts = Hashtbl.create 64 in
  for i = 0 to n - 1 do
    let d = slab_gap + caller.(i) - callee.(i) in
    if reachable d then
      Hashtbl.replace dist_counts d
        (1 + Option.value ~default:0 (Hashtbl.find_opt dist_counts d))
  done;
  let predicted =
    Hashtbl.fold
      (fun _ c acc ->
        let p = float_of_int c /. float_of_int n in
        acc +. (p *. p))
      dist_counts 0.
  in
  let applied =
    Defenses.Defense.apply ~seed:3L (Defenses.Defense.Smokestack Smokestack.Config.default) prog
  in
  let n = 400 in
  let hits = ref 0 in
  for i = 0 to n - 1 do
    match
      (Apps.Librelp.attack_static ~backend applied ~seed:(Int64.of_int (40_000 + i)))
        .verdict
    with
    | Attacks.Verdict.Success -> incr hits
    | _ -> ()
  done;
  let distinct =
    (Smokestack.Entropy_an.of_binding hardened.pbox (binding "relpTcpChkPeerName"))
      .distinct_layouts
  in
  let rows =
    [
      ("predicted per-attempt success (distance collision)", Printf.sprintf "%.4f" predicted);
      ( Printf.sprintf "measured per-attempt success (%d trials)" n,
        Printf.sprintf "%.4f" (float_of_int !hits /. float_of_int n) );
      ("predicted expected attempts", Printf.sprintf "%.0f" (1. /. predicted));
      ("measured full-frame distinct layouts (callee)", string_of_int distinct);
    ]
  in
  let tbl = Sutil.Texttable.create ~columns:[ ("quantity", Left); ("value", Right) ] in
  List.iter (fun (k, v) -> Sutil.Texttable.add_row tbl [ k; v ]) rows;
  outcome [ pipe "entropy" "E9: librelp per-attempt success, entropy prediction vs measured" tbl ]

let rerand pool backend =
  let tbl = Security.rerand_table (Security.rerandomization ~pool ~backend ()) in
  outcome
    [
      pipe "rerand"
        "E11: same-run probe-then-exploit vs re-randomization interval (per-invocation is the \
         design point)"
        tbl;
    ]

let analysis pool backend =
  let t = Surface.run ~pool () in
  let cv = Crossval.run ~pool ~backend () in
  outcome ~invariants:[ ("all_validated", cv.all_validated) ] (Surface.output t @ Crossval.output cv)

let chaos pool (_ : Machine.Backend.t) = outcome (Chaos.output (Chaos.run ~pool ()))

let selective pool backend =
  let t = Selective.run ~pool ~backend () in
  let cv = Crossval.run_selective ~pool ~backend () in
  outcome ~invariants:[ ("all_identical", cv.all_identical) ]
    (pipe "selective"
       "E14: selective hardening — overhead and P-BOX bytes, full vs validator-certified elision"
       (Selective.table t)
    :: Output.text "mean overhead saved by elision: %s; mean P-BOX bytes saved: %.1f%%"
         (Sutil.Texttable.fmt_pct t.mean_delta) t.mean_pbox_saving_pct
    :: Crossval.selective_output cv)

let serve pool backend =
  let t = Serve.run ~pool ~backend () in
  outcome ~invariants:[ ("batch_mismatches = 0", t.summary.batch_mismatches = 0) ] (Serve.output t)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* E16: a cold and a warm campaign over a fresh temporary store, removed
   even if a phase raises.  The report shows the store counters and
   digests; the wall-clock table of the same two phases goes to JSON
   only. *)
let campaign pool (backend : Machine.Backend.t) =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "smokestack-e16-store-%d" (Unix.getpid ()))
  in
  let clean () = if Sys.file_exists dir then rm_rf dir in
  clean ();
  Fun.protect ~finally:clean @@ fun () ->
  let store = Store.Cache.open_disk dir in
  let config =
    Store.Campaign.config ~seed:1000L ~count:200 ~engine:backend.kind ()
  in
  let phase label =
    Store.Cache.reset_stats store;
    let t0 = Unix.gettimeofday () in
    let report = Store.Campaign.run ~pool ~store config in
    (label, Unix.gettimeofday () -. t0, Store.Cache.stats store, report)
  in
  let ((_, _, _, cold) as c) = phase "cold" in
  let ((_, _, _, warm) as w) = phase "warm" in
  let identical = String.equal cold.Store.Campaign.digest warm.digest in
  let timed =
    Sutil.Texttable.create
      ~columns:
        [
          ("phase", Left); ("wall s", Right); ("programs/s", Right); ("hit rate", Right);
          ("digest", Left);
        ]
  in
  let counters =
    Sutil.Texttable.create
      ~columns:
        [ ("phase", Left); ("hits", Right); ("misses", Right); ("writes", Right); ("digest", Left) ]
  in
  List.iter
    (fun (label, wall, (st : Store.Cache.stats), (r : Store.Campaign.report)) ->
      let lookups = st.hits + st.misses in
      Sutil.Texttable.add_row timed
        [
          label;
          Printf.sprintf "%.2f" wall;
          Printf.sprintf "%.0f" (float_of_int config.count /. Float.max wall 1e-9);
          Printf.sprintf "%.1f%%"
            (if lookups = 0 then 0. else 100. *. float_of_int st.hits /. float_of_int lookups);
          r.digest;
        ];
      Sutil.Texttable.add_row counters
        [
          label; string_of_int st.hits; string_of_int st.misses; string_of_int st.writes; r.digest;
        ])
    [ c; w ];
  outcome ~invariants:[ ("cold digest = warm digest", identical) ]
    [
      Output.Text
        (Printf.sprintf "```\n%s```\n" (Sutil.Texttable.render (Store.Campaign.report_table cold)));
      Output.Text (Sutil.Texttable.to_markdown counters);
      Output.text "digests identical: %b" identical;
      Output.table ~form:Output.Json_only "campaign"
        (Printf.sprintf
           "Campaign store: %d progen programs, cold (execute + record) vs warm (replay from store)"
           config.count)
        timed;
    ]

let attack pool backend =
  let t = Offense.run ~pool ~backend ~progen:10 () in
  outcome
    ~invariants:
      [
        ("landed_unhardened >= 1", t.landed_unhardened >= 1);
        ("full_successes = 0", t.full_successes = 0);
        ("all_grounded", t.all_grounded);
      ]
    (Offense.output t)

let resilience pool backend =
  let t = Resilience.run ~pool ~backend () in
  outcome
    ~invariants:
      [
        ("hand_higher", t.hand_higher);
        ("synth_higher", t.synth_higher);
        ("mismatches = 0", t.mismatches = 0);
      ]
    (Resilience.output t)

let leaks pool backend =
  let t = Leakcheck.run ~pool ~backend () in
  let within = match t.guided with Some g -> g.within_bound | None -> false in
  outcome
    ~invariants:[ ("disagreements = 0", t.disagreements = 0); ("within_bound", within) ]
    (Leakcheck.output t)

(* ------------------------------------------------------------------ *)
(* The registry                                                        *)

let entry id key title run claim = { id; key; title; claim; run }

let all =
  [
    entry "E1" "table1" "Table I: randomness source rates" table1
      "Paper: pseudo 3.4, AES-1 19.2, AES-10 92.8, RDRAND 265.6 \
       cycles/invocation; pseudo offers no security, AES trades rounds for \
       security, RDRAND is true-random but slow.";
    entry "E2" "fig3" "Figure 3: runtime overhead" fig3
      "Paper: pseudo from -2.6% to +7.2% (mean 0.9%); AES-1 mean 3.3%; \
       AES-10 0.6-29% (mean 10.3%); RDRAND mean ~22%; I/O-bound apps \
       worst case 6%.  Expected shape: RDRAND > AES-10 > AES-1 > pseudo on \
       every row; call-dense benchmarks (gobmk) worst; loop-dominated \
       (mcf, hmmer, libquantum) near zero.";
    entry "E3" "fig4" "Figure 4: memory overhead (max RSS)" fig4
      "Paper: the P-BOX in read-only data drives RSS up most for the \
       benchmarks with the most distinct stack formats (perlbench, \
       h264ref), and those benchmarks' *performance* overhead is \
       comparatively low.";
    entry "E4" "bypass"
      "§II-C: bypassing prior stack randomizations (librelp PoC)"
      (security "bypass" (fun pool backend -> Security.bypass_prior ~pool ~backend ()))
      "Paper: the CVE-2018-1000140 DOP exploit defeats stack-base \
       randomization, random padding, and static permutation (via binary \
       analysis / disclosure / brute force); the non-linear snprintf gap \
       sails over canaries.  Success rate per attempt (per *build* for the \
       per-build defenses):";
    entry "E5" "pentest"
      "§V-C: synthetic penetration tests"
      (security "pentest" (fun pool backend -> Security.pentest ~pool ~backend ()))
      "Paper: Smokestack stopped all direct and indirect overflow attacks \
       from stack, data-segment and heap buffers; prior defenses did not.  \
       (stack-base stops only the attacks needing *absolute* addresses; \
       static-perm rows read as the fraction of builds exploitable.)";
    entry "E6" "realvuln"
      "§V-C: real vulnerabilities"
      (security "realvuln" (fun pool backend -> Security.realvuln ~pool ~backend ()))
      "Paper: the Wireshark CVE-2014-2299 DOP exploit, the three ProFTPD \
       CVE-2006-5815 exploits (private-key extraction through the pointer \
       chain, bot simulation, memory-permission alteration), and the \
       librelp PoC all succeed undefended and are all stopped by \
       Smokestack (Wireshark via function-identifier detection).";
    entry "E7" "ablation" "§III-E: P-BOX optimization ablation" ablation
      "Power-of-2 rows trade read-only bytes for a cheaper prologue (AND \
       vs modulo); table sharing and rounding-up reclaim memory for free; \
       the FID checks that replace the stack protector cost one extra \
       permuted slot per function (larger tables) plus a cheap \
       prologue/epilogue pair.";
    entry "E8" "brute" "brute force under restart-after-crash" brute
      "Paper threat model: finite attempts against a restarting service.  \
       Prior defenses fall on the first attempt (or are fixed per build); \
       Smokestack forces ~|permutation space| attempts and re-randomizes \
       per invocation, with FID detections along the way.";
    entry "E9" "entropy" "entropy accounting (extension)" entropy
      "The measured brute-force rates should follow from the permutation \
       space itself.  A librelp attempt succeeds when the attacker's guessed \
       allNames-to-keyPtr DISTANCE equals the drawn one and the distance is \
       physically reachable by the single snprintf gap jump; since guess and \
       reality are drawn from the same distribution, the per-attempt success \
       probability is the collision probability of the (reachable) distance \
       distribution.  Alignment padding adds entropy; identical-shape slots \
       and distance aliasing remove some — both paper-predicted effects, \
       now with numbers.";
    entry "E10" "rngsec"
      "state-disclosure prediction vs randomness scheme (extension)"
      (security "rngsec" (fun pool backend -> Security.rng_security ~pool ~backend ()))
      "Table I's security column, executed.  The attacker reads the pseudo \
       generator's state word from VM data memory (the threat model grants \
       full read access), inverts the xorshift to recover the draws that laid \
       out the already-live frames, replicates the public layout decode, and \
       delivers the librelp exploit within the same invocation.  The residual \
       misses against `pseudo` are exploit physics (some layouts put the \
       target beyond the single snprintf jump and the dispatcher grants four \
       invocations per run); the prediction itself is exact.";
    entry "E11" "rerand" "re-randomization interval (extension)" rerand
      "The paper randomizes every invocation and argues an attacker must \
       \"reverse engineer a function frame and deliver a payload in the same \
       invocation\".  This ablation relaxes that: the permutation index is \
       redrawn only every n-th request, and the attacker runs a same-run \
       probe-then-exploit (plant marker, disclose the live distance, exploit \
       a later invocation of the same process — the attack that also kills \
       every static defense).  Intervals below one request's draw count \
       behave like the paper's design; larger windows re-open the attack up \
       to the exploit's reach cap.";
    entry "E12" "analysis"
      "static DOP attack surface + differential validation (extension)"
      analysis
      "The static analyzer (lib/analysis) classifies every stack slot \
       overflow-capable or safe, enumerates DOP pairs (same-frame, \
       cross-frame, wild-write), and scores each pair's expected \
       brute-force attempts per defense from the same collision model the \
       entropy accounting uses.  Shapes to check: the memory-safe Progen \
       programs report overflows only through escape imprecision; \
       `none`/`stack-base`/`canary` leave relative distances fixed (1 \
       attempt) except stack-base vs wild writes; Smokestack's expected \
       attempts track the E9 entropy columns.  The differential half runs \
       every dynamic exploit against the unhardened build and asserts its \
       corrupted (buffer, victim) tuple appears among the statically \
       reported pairs — the analyzer may over-approximate but must not \
       miss a demonstrated attack.";
    entry "E13" "chaos" "chaos: fault injection and graceful degradation (extension)" chaos
      "Seeded fault plans (site x trigger x behaviour; see DESIGN.md \
       §11) injected into hardened runs of one SPEC kernel and one \
       I/O request loop, each cell executed on both engines.  Shapes to \
       check: every outcome is structured (no fault plan makes the VM \
       raise); stuck-at/all-ones/biased sources are caught by the SP \
       800-90B health tests and degrade RDRAND -> AES-10 (fail-secure); \
       FID-argument corruption is caught by the XOR check; never-firing \
       plans leave every observable bit-identical to the fault-free run \
       (asserted); fail-open degradation to the memory-resident pseudo \
       scheme collapses the brute-force cost to one attempt while \
       fail-secure keeps the full permutation space.";
    entry "E14" "selective" "selective hardening under the static validator (extension)" selective
      "The static validator (lib/analysis/validate, DESIGN.md §12) proves \
       the four Smokestack post-conditions — frame integrity, P-BOX \
       soundness, index hygiene, FID pairing — over the hardened IR, and \
       doubles as an elision oracle: functions whose every slot is \
       provably overflow-safe and that join no DOP pair keep their \
       original frames (one discarded randomness draw preserves the \
       shuffle stream).  Shapes to check: the differential table is all \
       'yes' — elision never changes an attack verdict or a Progen \
       program's output — while the overhead table shows the payoff \
       concentrated in call-dense benchmarks (gobmk, sjeng) and zero \
       wherever nothing can be elided (the I/O request loops, whose \
       buffers all join DOP pairs).";
    entry "E15" "serve" "hardened multi-tenant server runtime (extension)" serve
      "The batch harnesses above probe one (defense, attack) cell at a \
       time; lib/server runs the fleet the way the paper's threat model \
       frames it — a long-lived service facing an adversarial client mix.  \
       One hardened tenant per session app serves a deterministic schedule \
       of benign request flows, batch-harness attack sessions and \
       chaos-faulted flows, dispatched over the worker pool and replayed \
       through a virtual-time FCFS admission queue with load shedding.  \
       Shapes to check: the report is byte-identical at any --jobs and on \
       either engine (every number derives from VM cycles); overload sheds \
       sessions without dropping any; and every served attack session \
       reproduces the batch harness's verdict exactly \
       (batch-verdict mismatches = 0).";
    entry "E16" "campaign"
      "artifact store: warm replay and resumable campaigns (extension)"
      campaign
      "lib/store caches every execution's observables on disk, \
       content-addressed on (source digest, hardening fingerprint, engine \
       kind, seed), with digest-verified appends to a segment log and \
       quarantine-on-corruption \
       (DESIGN.md §14).  A campaign over a Progen seed range consults the \
       store before touching the VM, so a warm re-run — or a run resumed \
       after a mid-campaign kill — replays cached observables and renders \
       the byte-identical report.  Checked here: a cold campaign against a \
       fresh store misses every key and a warm re-run hits every key, and \
       both report digests (a hash over every observable of every program \
       in seed order) are identical.";
    entry "E17" "attack" "automated DOP-attack compiler (extension)" attack
      "lib/offense closes the offense loop: instead of the hand-written \
       attack corpus, a chain planner classifies typed gadgets out of the \
       static DOP-pair enumeration (E13) and the per-function victim \
       analysis, learns arithmetic gadget semantics by probing the \
       attacker's own unhardened replica on the reference engine, and \
       compiles chain programs — direct branch flips, pointer re-aim \
       writes, and double-and-add dispatcher loops — down to overflow \
       payloads against each target's concrete frame layout.  Every chain \
       then runs against the defense ladder (undefended, selective, full \
       Smokestack).  Shapes to check: at least one synthesized chain lands \
       on the undefended build and none land on full hardening; the \
       brute-force entropy measured for the synthesized families sits next \
       to the hand-written corpus number for the same program; and every \
       chain that lands dynamically is grounded in statically enumerated \
       DOP pairs over its own buffer (the E13 feedback loop, now over \
       machine-generated attacks).  Input-free Progen programs expose no \
       read_input-reachable overflow, so they honestly synthesize zero \
       deliverable chains and appear only in the synthesis table.";
    entry "E18" "resilience" "resilient server control plane (extension)" resilience
      "lib/server grows a control plane: session affinity ties every \
       session to a stable client identity, per-client circuit breakers \
       convert the restart-after-crash assumption into exponential \
       virtual-time backoff (and quarantine for persistent offenders), \
       WFQ priority classes (paying / standard / suspect) replace blind \
       FCFS shedding, and sustained fault pressure flips the fleet into \
       graceful degradation that starves suspects before paying traffic. \
       Shapes to check: for at least one hand-written and one synthesized \
       attack family the affinity-on brute-force cost is strictly higher \
       than the anonymous-fleet cost (quarantine or imposed backoff), \
       reported next to the Entropy_an prediction; under the fault storm \
       the resilient cell admits no more attack sessions than the \
       baseline while benign p99 stays within 10%; and batch-verdict \
       mismatches are zero in every cell — admission policy never changes \
       what a session computes.";
    entry "E19" "leaks" "layout-leak cross-validation and the leak-guided attack (extension)" leaks
      "Analysis.Leakan tracks taint from the layout secrets (ss.rand \
       draws, P-BOX rows, slot and slice addresses) through interprocedural \
       flow summaries to observable sinks, classifies each flow (direct \
       value, address disclosure, comparison oracle) and prices it in \
       disclosed bits that degrade the E12 brute-force entropy.  E19 \
       cross-validates the static verdict dynamically: every corpus program \
       runs fully hardened under several entropy seeds with fixed input — \
       output-visible leaks and seed-dependent outputs must coincide \
       exactly.  On the disclosing stack-leaky target, the planner's leak \
       guides drive the disclosure-guided brute walk next to the blind one; \
       the measured guided attempts must sit within a factor of 3 of the \
       degraded-entropy prediction corrected by the sampled \
       layout-reachability factor, and far below the blind cost.  Shapes \
       to check: zero static/dynamic disagreements, and the guided walk \
       lands inside the bound while the blind walk exhausts its budget.";
  ]

let setup () =
  Engine.Backend.install ();
  Analysis.Validate.install ()

let heading e = e.id ^ " — " ^ e.title

let preamble =
  "# EXPERIMENTS — paper vs. measured\n\n\
   Generated by `dune exec bin/experiments.exe`.  Absolute numbers come \
   from the repository's cycle-accurate VM, not the paper's Xeon D-1541 \
   testbed; the claims to check are the *shapes*: orderings, rough \
   factors, and which attacks succeed where.  See DESIGN.md for the \
   substitutions.\n\n"

let section e o = Printf.sprintf "## %s\n\n%s\n\n%s" (heading e) e.claim (Output.to_markdown o.output)

let violations e o =
  List.filter_map
    (fun (name, holds) ->
      if holds then None
      else Some (Printf.sprintf "%s (%s): invariant %s failed" e.id e.key name))
    o.invariants

let exit_code = function [] -> 0 | _ :: _ -> 1
