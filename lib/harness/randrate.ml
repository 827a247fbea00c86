type row = {
  scheme : Rng.Scheme.t;
  security : Rng.Scheme.security;
  cycles_per_draw : float;
  draws_measured : int;
}

type t = { rows : row list }

let paper_values =
  [ ("pseudo", 3.4); ("AES-1", 19.2); ("AES-10", 92.8); ("RDRAND", 265.6) ]

(* Draw through a minimal hardened program whose hot function does
   nothing but request a permutation index, so the measured rate is the
   intrinsic's own cost. *)
let probe_src draws =
  Printf.sprintf
    {|
long sink = 0;

void draw_once() {
  long x = 0;
  x = sink;
  sink = x + 1;
}

int main() {
  long i = 0;
  while (i < %d) {
    draw_once();
    i += 1;
  }
  return 0;
}
|}
    draws

let measure ~draws ~seed scheme =
  let prog = Minic.Driver.compile (probe_src draws) in
  let run config =
    let hardened = Smokestack.Harden.harden ~seed:3L config prog in
    let entropy = Crypto.Entropy.create ~seed in
    let st = Smokestack.Harden.prepare hardened ~entropy in
    let outcome, stats = Machine.Exec.run ~fuel:400_000_000 st in
    (match outcome with
    | Machine.Exec.Exit _ -> ()
    | o -> failwith ("Harness.Randrate: " ^ Machine.Exec.outcome_to_string o));
    stats.cycles
  in
  (* Isolate the RNG cost: same instrumentation with the scheme under
     test vs with a zero-cost... there is no zero-cost scheme, so
     subtract the pseudo run and add back pseudo's nominal Table-I
     cost. *)
  let config = Smokestack.Config.with_scheme scheme Smokestack.Config.default in
  let cycles = run config in
  let pseudo_cycles =
    run (Smokestack.Config.with_scheme Rng.Scheme.Pseudo Smokestack.Config.default)
  in
  ((cycles -. pseudo_cycles) /. float_of_int draws) +. Machine.Cost.rng_pseudo

let run ?(pool = Sched.Pool.sequential) ?(draws = 100_000) () =
  let rows =
    Sched.Pool.run_all pool
      (List.map
         (fun scheme ->
           Sched.Job.v ~id:("table1/" ^ Rng.Scheme.name scheme) ~seed:7L
             (fun () ->
               {
                 scheme;
                 security = Rng.Scheme.security scheme;
                 cycles_per_draw = measure ~draws ~seed:7L scheme;
                 draws_measured = draws;
               }))
         Rng.Scheme.all)
  in
  { rows }

let table t =
  let tbl =
    Sutil.Texttable.create
      ~columns:
        [
          ("source", Sutil.Texttable.Left);
          ("security", Sutil.Texttable.Left);
          ("measured cyc/draw", Sutil.Texttable.Right);
          ("paper cyc/draw", Sutil.Texttable.Right);
        ]
  in
  List.iter
    (fun r ->
      Sutil.Texttable.add_row tbl
        [
          Rng.Scheme.name r.scheme;
          Rng.Scheme.security_to_string r.security;
          Sutil.Texttable.fmt_f1 r.cycles_per_draw;
          Sutil.Texttable.fmt_f1
            (List.assoc (Rng.Scheme.name r.scheme) paper_values);
        ])
    t.rows;
  tbl
