type rng_behaviour =
  | Stuck_at of int64
  | All_ones
  | Bias_low of int
  | Latency of float
  | Unavailable

type segment = Stack | Data

type site =
  | Rng of rng_behaviour
  | Mem_flip of { seg : segment; offset : int; bit : int }
  | Intrinsic of { name : string; xor : int64 }

type trigger = Never | At of int | Window of { from_ : int; until : int }

type t = { site : site; trigger : trigger }

let fires trigger n =
  match trigger with
  | Never -> false
  | At k -> n >= k
  | Window { from_; until } -> n >= from_ && n <= until

(* ---------------------------------------------------------------- *)
(* Printing                                                          *)

let segment_name = function Stack -> "stack" | Data -> "data"

let trigger_to_string = function
  | Never -> "never"
  | At n -> string_of_int n
  | Window { from_; until } -> Printf.sprintf "%d..%d" from_ until

let site_to_string = function
  | Rng (Stuck_at v) -> Printf.sprintf "rng:stuck=0x%Lx" v
  | Rng All_ones -> "rng:ones"
  | Rng (Bias_low k) -> Printf.sprintf "rng:bias=%d" k
  | Rng (Latency c) -> Printf.sprintf "rng:lat=%.0f" c
  | Rng Unavailable -> "rng:off"
  | Mem_flip { seg; offset; bit } ->
      Printf.sprintf "mem:%s:%d:%d" (segment_name seg) offset bit
  | Intrinsic { name; xor } -> Printf.sprintf "intr:%s:xor=0x%Lx" name xor

let to_spec t =
  Printf.sprintf "%s@%s" (site_to_string t.site) (trigger_to_string t.trigger)

let family t =
  match t.site with Rng _ -> "rng" | Mem_flip _ -> "mem" | Intrinsic _ -> "intr"

(* ---------------------------------------------------------------- *)
(* Parsing                                                           *)

let ( let* ) = Result.bind

let err fmt = Printf.ksprintf (fun m -> Error m) fmt

let parse_int what s =
  match int_of_string_opt s with
  | Some n when n >= 0 -> Ok n
  | _ -> err "bad %s %S (want a non-negative integer)" what s

let parse_u64 what s =
  (* accepts decimal and 0x forms; Int64.of_string handles both, and
     0xffffffffffffffff wraps to -1L as intended *)
  match Int64.of_string_opt s with
  | Some v -> Ok v
  | None -> err "bad %s %S (want an integer, 0x.. allowed)" what s

let parse_trigger s =
  if String.equal s "never" then Ok Never
  else
    match String.index_opt s '.' with
    | None ->
        let* n = parse_int "trigger" s in
        if n < 1 then err "trigger must be >= 1 (events are 1-based)"
        else Ok (At n)
    | Some i ->
        if i + 1 >= String.length s || s.[i + 1] <> '.' then
          err "bad trigger %S (want N, N..M or never)" s
        else
          let* from_ = parse_int "trigger start" (String.sub s 0 i) in
          let* until =
            parse_int "trigger end"
              (String.sub s (i + 2) (String.length s - i - 2))
          in
          if from_ < 1 || until < from_ then
            err "bad trigger window %S (want 1 <= N <= M)" s
          else Ok (Window { from_; until })

let strip_prefix ~prefix s =
  if String.starts_with ~prefix s then
    Some (String.sub s (String.length prefix) (String.length s - String.length prefix))
  else None

let parse_rng s =
  match s with
  | "ones" -> Ok All_ones
  | "off" -> Ok Unavailable
  | _ -> (
      match strip_prefix ~prefix:"stuck=" s with
      | Some v ->
          let* v = parse_u64 "stuck value" v in
          Ok (Stuck_at v)
      | None -> (
          match strip_prefix ~prefix:"bias=" s with
          | Some k ->
              let* k = parse_int "bias width" k in
              if k < 1 || k > 63 then err "bias width must be in [1, 63]"
              else Ok (Bias_low k)
          | None -> (
              match strip_prefix ~prefix:"lat=" s with
              | Some c -> (
                  match float_of_string_opt c with
                  | Some c when c > 0. -> Ok (Latency c)
                  | _ -> err "bad latency %S (want a positive cycle count)" c)
              | None ->
                  err
                    "bad rng behaviour %S (want stuck=HEX, ones, bias=K, \
                     lat=CYCLES or off)"
                    s)))

let parse_site s =
  match String.split_on_char ':' s with
  | "rng" :: rest ->
      let* b = parse_rng (String.concat ":" rest) in
      Ok (Rng b)
  | [ "mem"; seg; off; bit ] ->
      let* seg =
        match seg with
        | "stack" -> Ok Stack
        | "data" -> Ok Data
        | _ -> err "bad segment %S (want stack or data)" seg
      in
      let* offset = parse_int "offset" off in
      let* bit = parse_int "bit" bit in
      if bit > 7 then err "bit must be in [0, 7]"
      else Ok (Mem_flip { seg; offset; bit })
  | "mem" :: _ -> err "bad mem site %S (want mem:stack|data:OFFSET:BIT)" s
  | "intr" :: rest -> (
      (* the intrinsic name itself contains no ':' (ABI names are
         dotted), so the xor= part is the last component *)
      match List.rev rest with
      | last :: (_ :: _ as name_rev) -> (
          match strip_prefix ~prefix:"xor=" last with
          | Some v ->
              let* xor = parse_u64 "xor constant" v in
              Ok (Intrinsic { name = String.concat ":" (List.rev name_rev); xor })
          | None -> err "bad intr site %S (want intr:NAME:xor=HEX)" s)
      | _ -> err "bad intr site %S (want intr:NAME:xor=HEX)" s)
  | _ -> err "unknown site %S (want rng:..., mem:... or intr:...)" s

let of_spec s =
  match String.rindex_opt s '@' with
  | None -> err "missing trigger in %S (want SITE@TRIGGER)" s
  | Some i ->
      let* site = parse_site (String.sub s 0 i) in
      let* trigger =
        parse_trigger (String.sub s (i + 1) (String.length s - i - 1))
      in
      Ok { site; trigger }

(* ---------------------------------------------------------------- *)
(* Seeded derivation                                                 *)

let random ~seed =
  let rng = Sutil.Simrng.create ~seed in
  let draw_trigger ~bound =
    (* 1/8 never, 1/2 open-ended, else a window *)
    match Sutil.Simrng.int rng ~bound:8 with
    | 0 -> Never
    | 1 | 2 | 3 | 4 -> At (1 + Sutil.Simrng.int rng ~bound)
    | _ ->
        let from_ = 1 + Sutil.Simrng.int rng ~bound in
        Window { from_; until = from_ + Sutil.Simrng.int rng ~bound }
  in
  let site, trigger =
    match Sutil.Simrng.int rng ~bound:3 with
    | 0 ->
        let b =
          match Sutil.Simrng.int rng ~bound:5 with
          | 0 -> Stuck_at (Sutil.Simrng.next_u64 rng)
          | 1 -> All_ones
          | 2 -> Bias_low (4 + Sutil.Simrng.int rng ~bound:60)
          | 3 -> Latency (float_of_int (50 + Sutil.Simrng.int rng ~bound:450))
          | _ -> Unavailable
        in
        (Rng b, draw_trigger ~bound:40)
    | 1 ->
        let seg = if Sutil.Simrng.bool rng then Stack else Data in
        ( Mem_flip
            {
              seg;
              offset = Sutil.Simrng.int rng ~bound:4096;
              bit = Sutil.Simrng.int rng ~bound:8;
            },
          draw_trigger ~bound:20_000 )
    | _ ->
        let name =
          match Sutil.Simrng.int rng ~bound:4 with
          | 0 -> "ss.rand"
          | 1 -> "ss.pad"
          | 2 -> "ss.fid_key"
          | _ -> "ss.fid_assert"
        in
        let xor =
          (* never zero: a zero XOR is no fault at all *)
          Int64.logor 1L (Sutil.Simrng.next_u64 rng)
        in
        (Intrinsic { name; xor }, draw_trigger ~bound:16)
  in
  { site; trigger }
