(* Order statistics the repo's [Sutil.Stats] lacks. *)

let sum = List.fold_left ( +. ) 0.

(* Quartiles as Python's [statistics.quantiles(xs, n=4)] computes them
   (the default "exclusive" method), so the spread this benchmark prints
   is the spread its users recompute from the JSON. *)
let quartiles xs =
  match List.sort Float.compare xs with
  | [] -> invalid_arg "Stat.quartiles: empty list"
  | [ x ] -> (x, x, x)
  | s ->
      let a = Array.of_list s in
      let ld = Array.length a in
      let q i =
        let j = max 1 (min (ld - 1) (i * (ld + 1) / 4)) in
        let delta = (i * (ld + 1)) - (j * 4) in
        ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
      in
      (q 1, q 2, q 3)

(* The median and the highest percentile with at least ten samples
   beyond it, under its real name ("p99" needs n >= 1000). *)
let tail_percentiles xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  let n = float_of_int (Array.length a) in
  let tail =
    List.find_opt
      (fun (_, p) -> n *. (1. -. (p /. 100.)) >= 10.)
      [ ("p99.9", 99.9); ("p99", 99.); ("p95", 95.); ("p90", 90.); ("p75", 75.) ]
  in
  ("p50", Server.Metrics.percentile a 50.)
  :: List.map (fun (name, p) -> (name, Server.Metrics.percentile a p)) (Option.to_list tail)
