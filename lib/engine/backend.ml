(* The image is compiled on the first run, against that run's state,
   and published through an Atomic (Machine.Backend.make guards that
   every state comes from the bound program): a tenant's runner is shared by
   shard jobs on several domains, and forcing one Lazy.t from two
   domains raises. *)
let load (_ : Ir.Prog.t) =
  let image = Atomic.make None in
  fun ?fuel st ->
    let p =
      match Atomic.get image with
      | Some p -> p
      | None ->
          let p = Compile.compile st in
          Atomic.set image (Some p);
          p
    in
    Interp.run ?fuel p st

let backend = Machine.Backend.make ~kind:Machine.Backend.Bytecode ~label:"bytecode" ~load

let install () = Machine.Backend.register backend
let () = install ()
