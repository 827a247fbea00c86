let run_adaptive ~(backend : Machine.Backend.t) ?arm ?fuel
    (applied : Defenses.Defense.applied) ~seed ~input =
  let entropy = Crypto.Entropy.create ~seed in
  let st = applied.fresh_state entropy in
  Option.iter (fun f -> f st) arm;
  Machine.Exec.set_input st input;
  applied.runner backend ?fuel st

let run_chunks ~backend ?arm ?fuel applied ~seed ~chunks =
  let remaining = ref chunks in
  let input _st max =
    match !remaining with
    | [] -> ""
    | chunk :: rest ->
        remaining := rest;
        if String.length chunk > max then String.sub chunk 0 max else chunk
  in
  run_adaptive ~backend ?arm ?fuel applied ~seed ~input
