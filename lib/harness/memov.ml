type row = {
  workload : string;
  baseline_rss : int;
  hardened_rss : int;
  pbox_bytes : int;
  overhead_pct : float;
}

type t = { rows : row list; mean_pct : float }

(* A real process's max RSS includes the loader, libc and runtime pages
   (~1-2 MiB floor on the paper's Ubuntu 16.04 testbed); the VM only
   counts pages its programs touch.  Adding the floor to both sides
   keeps the numerator honest (it is exactly the P-BOX pages) while
   putting the percentages on a real process's scale. *)
let process_floor_bytes = 1 lsl 20

let run ?(pool = Sched.Pool.sequential) ~backend ?(workloads = Apps.Spec.spec) () =
  Workbench.force_programs workloads;
  let rows =
    Sched.Pool.run_all pool
    @@ List.map
      (fun (w : Apps.Spec.workload) ->
        Sched.Job.v ~id:("fig4/" ^ w.wname) ~seed:1L @@ fun () ->
        let base = Workbench.baseline ~backend w in
        let stats, pbox_bytes = Workbench.smokestack_stats ~backend Smokestack.Config.default w in
        let baseline_rss = base.rss_bytes + process_floor_bytes in
        let hardened_rss = stats.rss_bytes + process_floor_bytes in
        {
          workload = w.wname;
          baseline_rss;
          hardened_rss;
          pbox_bytes;
          overhead_pct =
            Sutil.Stats.percent_overhead
              ~baseline:(float_of_int baseline_rss)
              ~measured:(float_of_int hardened_rss);
        })
      workloads
  in
  {
    rows;
    mean_pct = Sutil.Stats.mean (List.map (fun r -> r.overhead_pct) rows);
  }

let table t =
  let tbl =
    Sutil.Texttable.create
      ~columns:
        [
          ("benchmark", Sutil.Texttable.Left);
          ("base RSS", Sutil.Texttable.Right);
          ("hardened RSS", Sutil.Texttable.Right);
          ("P-BOX bytes", Sutil.Texttable.Right);
          ("overhead", Sutil.Texttable.Right);
        ]
  in
  List.iter
    (fun r ->
      Sutil.Texttable.add_row tbl
        [
          r.workload;
          Sutil.Texttable.fmt_bytes r.baseline_rss;
          Sutil.Texttable.fmt_bytes r.hardened_rss;
          Sutil.Texttable.fmt_bytes r.pbox_bytes;
          Sutil.Texttable.fmt_pct r.overhead_pct;
        ])
    t.rows;
  Sutil.Texttable.add_rule tbl;
  Sutil.Texttable.add_row tbl
    [ "mean"; ""; ""; ""; Sutil.Texttable.fmt_pct t.mean_pct ];
  tbl
