type row = {
  label : string;
  config : Smokestack.Config.t;
  total_pbox_bytes : int;
  gobmk_cycles : float;
}

type t = { rows : row list }

let configs =
  let base = Smokestack.Config.default in
  [
    ("all optimizations", base);
    ("no power-of-2 rows", { base with pow2_pbox = false });
    ("no table sharing", { base with share_tables = false });
    ("no rounding-up", { base with round_up_allocs = false });
    ( "neither sharing opt",
      { base with share_tables = false; round_up_allocs = false } );
    ("no FID checks", { base with fid_checks = false });
    ("no VLA padding", { base with vla_padding = false });
  ]

let run ?(pool = Sched.Pool.sequential) ~backend () =
  let probe =
    match Apps.Spec.find "gobmk" with
    | Some w -> w
    | None -> failwith "Harness.Ablation: gobmk workload missing"
  in
  Workbench.force_programs Apps.Spec.all;
  let rows =
    Sched.Pool.run_all pool
      (List.map
         (fun (label, config) ->
           Sched.Job.v ~id:("e7/" ^ label) ~seed:1L (fun () ->
               let total_pbox_bytes =
                 List.fold_left
                   (fun acc (w : Apps.Spec.workload) ->
                     let hardened =
                       Smokestack.Harden.harden ~seed:3L config
                         (Lazy.force w.program)
                     in
                     acc + Smokestack.Harden.pbox_bytes hardened)
                   0 Apps.Spec.all
               in
               let stats, _ = Workbench.smokestack_stats ~backend config probe in
               { label; config; total_pbox_bytes; gobmk_cycles = stats.cycles }))
         configs)
  in
  { rows }

let table t =
  let tbl =
    Sutil.Texttable.create
      ~columns:
        [
          ("configuration", Sutil.Texttable.Left);
          ("P-BOX bytes (all workloads)", Sutil.Texttable.Right);
          ("gobmk cycles", Sutil.Texttable.Right);
        ]
  in
  List.iter
    (fun r ->
      Sutil.Texttable.add_row tbl
        [
          r.label;
          Sutil.Texttable.fmt_bytes r.total_pbox_bytes;
          Printf.sprintf "%.0f" r.gobmk_cycles;
        ])
    t.rows;
  tbl
