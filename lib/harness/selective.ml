type row = {
  workload : string;
  kind : [ `Spec | `Io ];
  n_funcs : int;
  n_elided : int;
  pbox_full : int;
  pbox_selective : int;
  overhead_full : float;
  overhead_selective : float;
}

type t = {
  rows : row list;
  mean_delta : float;
  mean_pbox_saving_pct : float;
}

let delta r = r.overhead_full -. r.overhead_selective

let pbox_saving_pct r =
  if r.pbox_full = 0 then 0.
  else
    100.
    *. float_of_int (r.pbox_full - r.pbox_selective)
    /. float_of_int r.pbox_full

(* Same two-wave shape as Overhead.run: baselines first, then one job
   per workload measuring the full and selective hardened runs
   back-to-back (they share the compiled program, so splitting them
   into separate jobs would only duplicate the closure captures). *)
let run ?(pool = Sched.Pool.sequential) ~backend () =
  let workloads = Apps.Spec.all and seed = 1L in
  (* the elision oracle behind Config.selective lives in lib/analysis *)
  Analysis.Validate.install ();
  Workbench.force_programs workloads;
  let full_config = Smokestack.Config.default in
  let sel_config = Smokestack.Config.with_selective true full_config in
  let baselines =
    Sched.Pool.run_all pool
      (List.map
         (fun (w : Apps.Spec.workload) ->
           Sched.Job.v ~id:("e14/baseline/" ^ w.wname) ~seed (fun () ->
               Workbench.baseline ~backend w))
         workloads)
  in
  let rows =
    Sched.Pool.run_all pool
      (List.map
         (fun ((w : Apps.Spec.workload), (base : Machine.Exec.stats)) ->
           Sched.Job.v ~id:("e14/" ^ w.wname) ~seed (fun () ->
               let prog = Lazy.force w.program in
               let hardened =
                 Smokestack.Harden.harden ~seed sel_config prog
               in
               let overhead_of config =
                 let stats, pbox_bytes =
                   Workbench.smokestack_stats ~backend config w
                 in
                 ( Sutil.Stats.percent_overhead ~baseline:base.cycles
                     ~measured:stats.cycles
                   +. w.sched_bias_pct,
                   pbox_bytes )
               in
               let overhead_full, pbox_full = overhead_of full_config in
               let overhead_selective, pbox_selective =
                 overhead_of sel_config
               in
               {
                 workload = w.wname;
                 kind = w.kind;
                 n_funcs = List.length prog.Ir.Prog.funcs;
                 n_elided =
                   List.length hardened.Smokestack.Harden.elided;
                 pbox_full;
                 pbox_selective;
                 overhead_full;
                 overhead_selective;
               }))
         (List.combine workloads baselines))
  in
  let mean_delta =
    match rows with
    | [] -> 0.
    | _ -> Sutil.Stats.mean (List.map delta rows)
  in
  let mean_pbox_saving_pct =
    match rows with
    | [] -> 0.
    | _ -> Sutil.Stats.mean (List.map pbox_saving_pct rows)
  in
  { rows; mean_delta; mean_pbox_saving_pct }

let table t =
  let tbl =
    Sutil.Texttable.create
      ~columns:
        Sutil.Texttable.
          [
            ("benchmark", Left);
            ("funcs", Right);
            ("elided", Right);
            ("pbox full", Right);
            ("pbox sel", Right);
            ("ovh full", Right);
            ("ovh sel", Right);
            ("delta", Right);
          ]
  in
  List.iter
    (fun r ->
      Sutil.Texttable.add_row tbl
        [
          r.workload;
          string_of_int r.n_funcs;
          string_of_int r.n_elided;
          string_of_int r.pbox_full;
          string_of_int r.pbox_selective;
          Sutil.Texttable.fmt_pct r.overhead_full;
          Sutil.Texttable.fmt_pct r.overhead_selective;
          Sutil.Texttable.fmt_pct (delta r);
        ])
    t.rows;
  tbl
