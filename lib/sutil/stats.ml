let require_nonempty fn = function
  | [] -> invalid_arg (Printf.sprintf "Sutil.Stats.%s: empty list" fn)
  | l -> l

let mean l =
  let l = require_nonempty "mean" l in
  List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

let geomean l =
  let l = require_nonempty "geomean" l in
  List.iter
    (fun x -> if x <= 0. then invalid_arg "Sutil.Stats.geomean: non-positive value")
    l;
  exp (mean (List.map log l))

let median l =
  let l = require_nonempty "median" l in
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let percent_overhead ~baseline ~measured =
  if baseline = 0. then invalid_arg "Sutil.Stats.percent_overhead: zero baseline";
  (measured -. baseline) /. baseline *. 100.
