type 'a t = { id : string; seed : int64; run : unit -> 'a }

type 'a outcome = Ok of 'a | Timed_out | Failed of exn

let v ~id ?(seed = 0L) run = { id; seed; run }

let seeded ~root ~id f =
  let seed = Sutil.Simrng.split_seed ~root ~id in
  { id; seed; run = (fun () -> f ~seed) }

let seed t = t.seed
let run t = t.run ()
