type t = {
  prog : Ir.Prog.t;
  pbox : Pbox.t;
  config : Config.t;
  elided : string list;
}

(* Hooks installed by Analysis.Validate.install ().  lib/analysis
   depends on this library, so the validator and the elision oracle
   arrive through registration, the same pattern Engine.Backend.install
   uses.  Set once at startup, read from many domains: Atomic, per the
   PR-2 domain-safety audit. *)
type validator = original:Ir.Prog.t -> t -> (unit, string) result

let validator_hook : validator option Atomic.t = Atomic.make None
let elision_hook : (Ir.Prog.t -> string list) option Atomic.t = Atomic.make None
let set_validator v = Atomic.set validator_hook (Some v)
let set_elision_oracle o = Atomic.set elision_hook (Some o)
let validator_installed () = Option.is_some (Atomic.get validator_hook)

let harden ?(seed = 1L) ?(validate = true) config prog =
  let config =
    match Config.validate config with
    | Ok c -> c
    | Error msg -> failwith ("Smokestack.Harden: invalid config: " ^ msg)
  in
  if
    List.exists
      (fun f ->
        Ir.Func.has_attr f Abi.smokestack_attr
        || Ir.Func.has_attr f Abi.smokestack_elided_attr)
      prog.Ir.Prog.funcs
  then failwith "Smokestack.Harden: program is already hardened";
  let original = prog in
  let prog = Ir.Prog.copy prog in
  let elided =
    if not config.selective then []
    else
      match Atomic.get elision_hook with
      | None ->
          failwith
            "Smokestack.Harden: selective hardening needs the elision oracle \
             — call Analysis.Validate.install () first"
      | Some oracle ->
          List.filter
            (fun n -> not (List.mem n config.exclude))
            (oracle original)
  in
  (* The full (unfiltered) meta list goes to Pbox.build even under
     selective hardening: table shuffles consume one shared RNG stream,
     so the group structure must match full hardening exactly for the
     surviving functions' layouts to stay bit-identical.  Pbox.build
     itself withholds bindings (and blob bytes for user-less tables)
     from elided functions. *)
  let metas = Instrument.collect_metas config prog in
  let pbox = Pbox.build ~seed ~elided config metas in
  (* The validator runs as the pass pipeline's semantic post-condition:
     a structural break still reports "pass smokestack-instrument broke
     IR invariants", while a violated security post-condition reports
     the rule, function and (for P-BOX rows) row that failed. *)
  let post =
    if validate then
      Option.map
        (fun v prog -> v ~original { prog; pbox; config; elided })
        (Atomic.get validator_hook)
    else None
  in
  Ir.Pass.run ?post [ Instrument.pass ~elided config ~pbox ] prog;
  { prog; pbox; config; elided }

let prepare ?entropy ?gen t =
  let entropy =
    match entropy with Some e -> e | None -> Crypto.Entropy.system ()
  in
  let st = Machine.Exec.prepare t.prog in
  Runtime.install ?gen t.config ~pbox:t.pbox ~entropy st;
  st

let pbox_bytes t = Pbox.blob_bytes t.pbox

let permuted_functions t =
  List.filter_map
    (fun (f : Ir.Func.t) ->
      if Ir.Func.has_attr f Abi.smokestack_attr then Some f.name else None)
    t.prog.funcs
