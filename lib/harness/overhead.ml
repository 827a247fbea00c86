type row = {
  workload : string;
  kind : [ `Spec | `Io ];
  baseline_cycles : float;
  by_scheme : (Rng.Scheme.t * float) list;
}

type t = {
  rows : row list;
  spec_means : (Rng.Scheme.t * float) list;
  io_worst : float;
}

(* Two job waves: one baseline job per workload, then one hardened run
   per (workload, scheme) cell.  Rows are reassembled from the cell
   list by submission order, so the parallel report is byte-identical
   to the sequential one. *)
let run ?(pool = Sched.Pool.sequential) ~backend ?(workloads = Apps.Spec.all) () =
  Workbench.force_programs workloads;
  let baselines =
    Sched.Pool.run_all pool
      (List.map
         (fun (w : Apps.Spec.workload) ->
           Sched.Job.v ~id:("fig3/baseline/" ^ w.wname) ~seed:1L (fun () ->
               Workbench.baseline ~backend w))
         workloads)
  in
  let cell_jobs =
    List.concat_map
      (fun ((w : Apps.Spec.workload), (base : Machine.Exec.stats)) ->
        List.map
          (fun scheme ->
            Sched.Job.v
              ~id:(Printf.sprintf "fig3/%s/%s" w.wname (Rng.Scheme.name scheme))
              ~seed:1L
              (fun () ->
                let config =
                  Smokestack.Config.with_scheme scheme Smokestack.Config.default
                in
                let stats, _ = Workbench.smokestack_stats ~backend config w in
                let measured =
                  Sutil.Stats.percent_overhead ~baseline:base.cycles
                    ~measured:stats.cycles
                in
                (scheme, measured +. w.sched_bias_pct)))
          Rng.Scheme.all)
      (List.combine workloads baselines)
  in
  let cells = ref (Sched.Pool.run_all pool cell_jobs) in
  let next_cells n =
    let rec take n acc rest =
      if n = 0 then (List.rev acc, rest)
      else
        match rest with
        | [] -> invalid_arg "Harness.Overhead: cell underflow"
        | c :: rest -> take (n - 1) (c :: acc) rest
    in
    let got, rest = take n [] !cells in
    cells := rest;
    got
  in
  let rows =
    List.map
      (fun ((w : Apps.Spec.workload), (base : Machine.Exec.stats)) ->
        {
          workload = w.wname;
          kind = w.kind;
          baseline_cycles = base.cycles;
          by_scheme = next_cells (List.length Rng.Scheme.all);
        })
      (List.combine workloads baselines)
  in
  let spec_rows = List.filter (fun r -> r.kind = `Spec) rows in
  let io_rows = List.filter (fun r -> r.kind = `Io) rows in
  let spec_means =
    List.map
      (fun scheme ->
        let vals =
          List.map (fun r -> List.assoc scheme r.by_scheme) spec_rows
        in
        (scheme, if vals = [] then 0. else Sutil.Stats.mean vals))
      Rng.Scheme.all
  in
  let io_worst =
    (* the paper's "worst case 6%" is for the deployed configuration:
       compare against AES-10, not the RDRAND stress point *)
    List.fold_left
      (fun acc r -> max acc (List.assoc Rng.Scheme.aes10 r.by_scheme))
      0. io_rows
  in
  { rows; spec_means; io_worst }

let table t =
  let columns =
    ("benchmark", Sutil.Texttable.Left)
    :: List.map
         (fun s -> (Rng.Scheme.name s, Sutil.Texttable.Right))
         Rng.Scheme.all
  in
  let tbl = Sutil.Texttable.create ~columns in
  List.iter
    (fun r ->
      Sutil.Texttable.add_row tbl
        (r.workload
        :: List.map
             (fun s -> Sutil.Texttable.fmt_pct (List.assoc s r.by_scheme))
             Rng.Scheme.all))
    t.rows;
  Sutil.Texttable.add_rule tbl;
  Sutil.Texttable.add_row tbl
    ("mean (SPEC)"
    :: List.map
         (fun s -> Sutil.Texttable.fmt_pct (List.assoc s t.spec_means))
         Rng.Scheme.all);
  tbl
