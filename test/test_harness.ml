(* Tests for the experiment harness: the properties each paper artifact
   must exhibit, on reduced workload subsets to stay fast. *)

let subset names =
  List.filter_map Apps.Spec.find names

let backend = Machine.Backend.reference

(* ------------------------------------------------------------------ *)
(* Table I *)

let test_randrate_matches_table1 () =
  let t = Harness.Randrate.run ~draws:20_000 () in
  List.iter
    (fun (r : Harness.Randrate.row) ->
      let paper =
        List.assoc (Rng.Scheme.name r.scheme) Harness.Randrate.paper_values
      in
      Alcotest.(check (float 0.5))
        (Rng.Scheme.name r.scheme)
        paper r.cycles_per_draw)
    t.rows

(* ------------------------------------------------------------------ *)
(* Figure 3 *)

let fig3 =
  lazy
    (Harness.Overhead.run ~backend
       ~workloads:(subset [ "gobmk"; "mcf"; "sjeng"; "wireshark-io" ])
       ())

let test_overhead_scheme_ordering () =
  let t = Lazy.force fig3 in
  List.iter
    (fun (r : Harness.Overhead.row) ->
      let v s = List.assoc s r.by_scheme in
      let open Rng.Scheme in
      Alcotest.(check bool)
        (r.workload ^ ": RDRAND >= AES-10 >= AES-1 >= pseudo")
        true
        (v Rdrand >= v aes10 && v aes10 >= v aes1 && v aes1 >= v Pseudo))
    t.rows

let test_overhead_call_density_dominates () =
  let t = Lazy.force fig3 in
  let get name =
    List.find (fun (r : Harness.Overhead.row) -> r.workload = name) t.rows
  in
  let aes10 r = List.assoc Rng.Scheme.aes10 r.Harness.Overhead.by_scheme in
  Alcotest.(check bool) "gobmk (call-dense) >> mcf (loop-dominated)" true
    (aes10 (get "gobmk") > 10. *. Float.max 0.1 (aes10 (get "mcf")))

let test_overhead_io_modest () =
  let t = Lazy.force fig3 in
  let ws = List.find (fun (r : Harness.Overhead.row) -> r.kind = `Io) t.rows in
  Alcotest.(check bool) "I/O-bound app under 10%" true
    (List.for_all (fun (_, v) -> v < 10.) ws.by_scheme)

let test_overhead_full_set_matches_paper_bands () =
  (* the full Figure 3: means must land in the paper's neighbourhood *)
  let t = Harness.Overhead.run ~backend () in
  let mean s = List.assoc s t.spec_means in
  let open Rng.Scheme in
  Alcotest.(check bool)
    (Printf.sprintf "pseudo mean %.1f in [-1, 6]" (mean Pseudo))
    true
    (mean Pseudo >= -1. && mean Pseudo <= 6.);
  Alcotest.(check bool)
    (Printf.sprintf "AES-10 mean %.1f in [4, 15] (paper 10.3)" (mean aes10))
    true
    (mean aes10 >= 4. && mean aes10 <= 15.);
  Alcotest.(check bool)
    (Printf.sprintf "RDRAND mean %.1f in [10, 30] (paper ~22)" (mean Rdrand))
    true
    (mean Rdrand >= 10. && mean Rdrand <= 30.);
  (* at least one loop-dominated benchmark shows the paper's speedup *)
  Alcotest.(check bool) "some negative overhead exists under pseudo" true
    (List.exists
       (fun (r : Harness.Overhead.row) -> List.assoc Pseudo r.by_scheme < 0.)
       t.rows);
  Alcotest.(check bool)
    (Printf.sprintf "I/O worst %.1f <= 8 (paper 6)" t.io_worst)
    true (t.io_worst <= 8.)

(* ------------------------------------------------------------------ *)
(* Figure 4 *)

let test_memov_positive_and_pbox_driven () =
  let t =
    Harness.Memov.run ~backend ~workloads:(subset [ "h264ref"; "libquantum" ]) ()
  in
  List.iter
    (fun (r : Harness.Memov.row) ->
      Alcotest.(check bool) (r.workload ^ " overhead >= 0") true (r.overhead_pct >= 0.);
      Alcotest.(check bool) (r.workload ^ " hardened >= base") true
        (r.hardened_rss >= r.baseline_rss);
      Alcotest.(check bool) (r.workload ^ " has a P-BOX") true (r.pbox_bytes > 0))
    t.rows;
  (* the many-functions benchmark pays more *)
  let get n = List.find (fun (r : Harness.Memov.row) -> r.workload = n) t.rows in
  Alcotest.(check bool) "h264ref P-BOX > libquantum P-BOX" true
    ((get "h264ref").pbox_bytes > (get "libquantum").pbox_bytes)

(* ------------------------------------------------------------------ *)
(* Ablation *)

let test_ablation_tradeoffs () =
  let t = Harness.Ablation.run ~backend () in
  let get label =
    List.find (fun (r : Harness.Ablation.row) -> r.label = label) t.rows
  in
  let all = get "all optimizations" in
  let no_pow2 = get "no power-of-2 rows" in
  let no_share = get "neither sharing opt" in
  Alcotest.(check bool) "pow2 costs memory" true
    (all.total_pbox_bytes > no_pow2.total_pbox_bytes);
  Alcotest.(check bool) "pow2 saves cycles (AND vs modulo)" true
    (all.gobmk_cycles < no_pow2.gobmk_cycles);
  Alcotest.(check bool) "sharing saves memory" true
    (all.total_pbox_bytes < no_share.total_pbox_bytes)

(* ------------------------------------------------------------------ *)
(* Security experiments *)

let test_realvuln_shape () =
  let t = Harness.Security.realvuln ~backend ~trials_per_cell:4 () in
  List.iter
    (fun (c : Harness.Security.cell) ->
      match c.defense with
      | Defenses.Defense.No_defense ->
          Alcotest.(check (float 0.001))
            (c.attack_name ^ " undefended") 1.0 c.success_rate
      | _ ->
          Alcotest.(check bool)
            (Printf.sprintf "%s vs smokestack: %.2f <= 0.25" c.attack_name
               c.success_rate)
            true (c.success_rate <= 0.25))
    t.cells

let test_pentest_shape () =
  let t = Harness.Security.pentest ~backend ~trials_per_cell:4 () in
  List.iter
    (fun (c : Harness.Security.cell) ->
      match c.defense with
      | Defenses.Defense.No_defense ->
          Alcotest.(check (float 0.001)) (c.attack_name ^ " undefended") 1.0 c.success_rate
      | Defenses.Defense.Smokestack _ ->
          Alcotest.(check bool)
            (Printf.sprintf "%s vs smokestack %.2f" c.attack_name c.success_rate)
            true (c.success_rate <= 0.5)
      | _ -> ())
    t.cells

let test_brute_shape () =
  let rows = Harness.Security.brute ~backend ~max_attempts:120 () in
  let get d =
    List.find (fun (r : Harness.Security.brute_row) -> r.bdefense = d) rows
  in
  Alcotest.(check (option int)) "undefended falls immediately" (Some 1)
    (get Defenses.Defense.No_defense).attempts_to_success;
  let ss = get (Defenses.Defense.Smokestack Smokestack.Config.default) in
  Alcotest.(check bool) "smokestack needs many attempts or resists" true
    (match ss.attempts_to_success with None -> true | Some n -> n > 5)

(* ------------------------------------------------------------------ *)
(* Reporting plumbing *)

let test_markdown_renderers () =
  let t1 = Harness.Randrate.run ~draws:2_000 () in
  Alcotest.(check bool) "randrate md" true
    (String.length (Sutil.Texttable.to_markdown (Harness.Randrate.table t1)) > 100);
  let e = Harness.Security.realvuln ~backend ~trials_per_cell:1 () in
  Alcotest.(check bool) "security md" true
    (String.length (Sutil.Texttable.to_markdown (Harness.Security.table e)) > 100)

(* ------------------------------------------------------------------ *)
(* Experiment registry *)

let test_registry_setup () =
  Harness.Registry.setup ();
  Alcotest.(check bool) "validator installed" true
    (Smokestack.Harden.validator_installed ());
  Alcotest.(check bool) "bytecode backend registered" true
    (Option.is_some (Machine.Backend.find_opt Machine.Backend.Bytecode))

let test_registry_failed_invariant () =
  let e =
    List.find (fun (e : Harness.Registry.entry) -> e.key = "analysis") Harness.Registry.all
  in
  let outcome invariants = { Harness.Registry.output = []; invariants } in
  let v =
    Harness.Registry.violations e
      (outcome [ ("all_validated", false); ("held", true) ])
  in
  Alcotest.(check int) "one violation" 1 (List.length v);
  let msg = List.hd v in
  let contains sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length msg && (String.sub msg i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) ("names the entry: " ^ msg) true (contains "E12");
  Alcotest.(check bool) ("names the predicate: " ^ msg) true (contains "all_validated");
  Alcotest.(check bool) ("omits the held predicate: " ^ msg) false (contains "held");
  Alcotest.(check int) "exit code on failure" 1 (Harness.Registry.exit_code v);
  Alcotest.(check int) "exit code when all hold" 0
    (Harness.Registry.exit_code
       (Harness.Registry.violations e (outcome [ ("all_validated", true) ])))

(* An entry executes its programs on the backend it is handed: a
   bytecode backend that counts its runs must be called, and the
   entry's output must equal the reference interpreter's. *)
let test_registry_backend_reaches_execution () =
  Harness.Registry.setup ();
  let e =
    List.find (fun (e : Harness.Registry.entry) -> e.key = "analysis") Harness.Registry.all
  in
  let runs = Atomic.make 0 in
  let counting =
    Machine.Backend.make ~kind:Machine.Backend.Bytecode ~label:"bytecode"
      ~load:(fun prog ->
        let run = Engine.Backend.backend.load prog in
        fun ?fuel st ->
          Atomic.incr runs;
          run ?fuel st)
  in
  let render backend =
    Harness.Output.to_markdown (e.run Sched.Pool.sequential backend).output
  in
  let counted = render counting in
  Alcotest.(check bool)
    (Printf.sprintf "the passed backend ran (%d runs)" (Atomic.get runs))
    true
    (Atomic.get runs > 0);
  Alcotest.(check string) "output equals the reference interpreter's"
    (render Machine.Backend.reference) counted

let test_registry_golden () =
  let all = Harness.Registry.all in
  Alcotest.(check (list string)) "E1..E19 in order"
    (List.init 19 (fun i -> Printf.sprintf "E%d" (i + 1)))
    (List.map (fun (e : Harness.Registry.entry) -> e.id) all);
  let keys = List.map (fun (e : Harness.Registry.entry) -> e.key) all in
  Alcotest.(check int) "keys unique" (List.length keys)
    (List.length (List.sort_uniq String.compare keys));
  let headings =
    In_channel.with_open_bin
      (Filename.concat (Filename.dirname Sys.executable_name) "../EXPERIMENTS.md")
      In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter_map (fun l ->
           if String.starts_with ~prefix:"## " l then
             Some (String.sub l 3 (String.length l - 3))
           else None)
  in
  Alcotest.(check (list string)) "headings match EXPERIMENTS.md" headings
    (List.map Harness.Registry.heading all)

let () =
  Alcotest.run "harness"
    [
      ("table1", [ Alcotest.test_case "matches paper" `Quick test_randrate_matches_table1 ]);
      ( "fig3",
        [
          Alcotest.test_case "scheme ordering" `Slow test_overhead_scheme_ordering;
          Alcotest.test_case "call density dominates" `Slow
            test_overhead_call_density_dominates;
          Alcotest.test_case "io modest" `Slow test_overhead_io_modest;
          Alcotest.test_case "full set in paper bands" `Slow
            test_overhead_full_set_matches_paper_bands;
        ] );
      ("fig4", [ Alcotest.test_case "pbox-driven" `Slow test_memov_positive_and_pbox_driven ]);
      ("ablation", [ Alcotest.test_case "tradeoffs" `Slow test_ablation_tradeoffs ]);
      ( "security",
        [
          Alcotest.test_case "realvuln shape" `Slow test_realvuln_shape;
          Alcotest.test_case "pentest shape" `Slow test_pentest_shape;
          Alcotest.test_case "brute shape" `Slow test_brute_shape;
        ] );
      ("reporting", [ Alcotest.test_case "markdown" `Quick test_markdown_renderers ]);
      ( "registry",
        [
          Alcotest.test_case "setup installs validator" `Quick test_registry_setup;
          Alcotest.test_case "failed invariant exits 1" `Quick
            test_registry_failed_invariant;
          Alcotest.test_case "golden ids, keys and headings" `Quick test_registry_golden;
          Alcotest.test_case "passed backend reaches execution" `Quick
            test_registry_backend_reaches_execution;
        ] );
    ]
