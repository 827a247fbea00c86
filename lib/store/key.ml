type t = {
  source : string;
  config : string;
  engine : string;
  seed : int64;
  extra : string;
}

let for_sources ~config ~engine ~seed ?(extra = "") () =
  let config =
    match config with
    | None -> "none"
    | Some c -> Smokestack.Config.fingerprint c
  in
  let engine = Machine.Backend.kind_to_string engine in
  fun source_text -> { source = Hash.hex source_text; config; engine; seed; extra }

let of_source ~source_text ~config ~engine ~seed ?extra () =
  for_sources ~config ~engine ~seed ?extra () source_text

let id k =
  Hash.hex_of_parts
    [ k.source; k.config; k.engine; Int64.to_string k.seed; k.extra ]

let equal a b =
  String.equal a.source b.source
  && String.equal a.config b.config
  && String.equal a.engine b.engine
  && Int64.equal a.seed b.seed
  && String.equal a.extra b.extra

let to_json k =
  Sutil.Json.Obj
    [
      ("source", Sutil.Json.String k.source);
      ("config", Sutil.Json.String k.config);
      ("engine", Sutil.Json.String k.engine);
      ("seed", Sutil.Json.String (Int64.to_string k.seed));
      ("extra", Sutil.Json.String k.extra);
    ]

let of_json j =
  let module J = Sutil.Json in
  let str k = Option.bind (J.member k j) J.to_str_opt in
  match (str "source", str "config", str "engine", str "seed", str "extra") with
  | Some source, Some config, Some engine, Some seed_s, Some extra -> (
      match Int64.of_string_opt seed_s with
      | Some seed -> Some { source; config; engine; seed; extra }
      | None -> None)
  | _ -> None
