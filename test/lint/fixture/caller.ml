(* Calls through an alias, and forwards [?passed] from a function whose
   own option is passed: both count for the lint. *)
module P = Planted

let g ?passed () = P.f ?passed ()
let total = P.used 1 + g ~passed:2 ()
