(* Unit and property tests for the utility kit. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Align *)

let test_is_pow2 () =
  List.iter (fun n -> check_bool (string_of_int n) true (Sutil.Align.is_pow2 n))
    [ 1; 2; 4; 8; 16; 1024; 1 lsl 30 ];
  List.iter (fun n -> check_bool (string_of_int n) false (Sutil.Align.is_pow2 n))
    [ 0; -1; -8; 3; 6; 12; 100 ]

let test_next_pow2 () =
  check_int "1" 1 (Sutil.Align.next_pow2 1);
  check_int "2" 2 (Sutil.Align.next_pow2 2);
  check_int "3" 4 (Sutil.Align.next_pow2 3);
  check_int "5" 8 (Sutil.Align.next_pow2 5);
  check_int "720" 1024 (Sutil.Align.next_pow2 720);
  check_int "1024" 1024 (Sutil.Align.next_pow2 1024);
  Alcotest.check_raises "non-positive" (Invalid_argument "Sutil.Align.next_pow2: non-positive argument")
    (fun () -> ignore (Sutil.Align.next_pow2 0))

let test_align_up_cases () =
  check_int "0/8" 0 (Sutil.Align.align_up 0 ~alignment:8);
  check_int "1/8" 8 (Sutil.Align.align_up 1 ~alignment:8);
  check_int "8/8" 8 (Sutil.Align.align_up 8 ~alignment:8);
  check_int "9/4" 12 (Sutil.Align.align_up 9 ~alignment:4);
  check_int "neg" (-8) (Sutil.Align.align_up (-9) ~alignment:8);
  Alcotest.check_raises "bad alignment"
    (Invalid_argument "Sutil.Align.align_up: alignment 3 is not a positive power of two")
    (fun () -> ignore (Sutil.Align.align_up 1 ~alignment:3))

let prop_align_up =
  QCheck2.Test.make ~count:500 ~name:"align_up is aligned, minimal, monotone"
    QCheck2.Gen.(pair (int_range 0 1_000_000) (int_range 0 12))
    (fun (off, k) ->
      let alignment = 1 lsl k in
      let r = Sutil.Align.align_up off ~alignment in
      Sutil.Align.is_aligned r ~alignment && r >= off && r - off < alignment)

let prop_align_down =
  QCheck2.Test.make ~count:500 ~name:"align_down dual of align_up"
    QCheck2.Gen.(pair (int_range 0 1_000_000) (int_range 0 12))
    (fun (off, k) ->
      let alignment = 1 lsl k in
      let d = Sutil.Align.align_down off ~alignment in
      Sutil.Align.is_aligned d ~alignment && d <= off && off - d < alignment)

(* ------------------------------------------------------------------ *)
(* Fact *)

let test_factorial () =
  check_int "0!" 1 (Sutil.Fact.factorial 0);
  check_int "1!" 1 (Sutil.Fact.factorial 1);
  check_int "5!" 120 (Sutil.Fact.factorial 5);
  check_int "10!" 3628800 (Sutil.Fact.factorial 10);
  check_int "20!" 2432902008176640000 (Sutil.Fact.factorial 20);
  Alcotest.check_raises "21!"
    (Invalid_argument "Sutil.Fact.factorial: 21! overflows a 63-bit integer")
    (fun () -> ignore (Sutil.Fact.factorial 21))

let test_lehmer_lexical_order () =
  (* permutations of size 3 in lexical order *)
  let expected =
    [ [| 0; 1; 2 |]; [| 0; 2; 1 |]; [| 1; 0; 2 |]; [| 1; 2; 0 |];
      [| 2; 0; 1 |]; [| 2; 1; 0 |] ]
  in
  List.iteri
    (fun i p ->
      Alcotest.(check (array int))
        (Printf.sprintf "perm %d" i)
        p
        (Sutil.Fact.lehmer_decode ~n:3 i))
    expected

let prop_lehmer_roundtrip =
  QCheck2.Test.make ~count:300 ~name:"lehmer encode/decode roundtrip"
    QCheck2.Gen.(int_range 0 (Sutil.Fact.factorial 7 - 1))
    (fun idx ->
      let p = Sutil.Fact.lehmer_decode ~n:7 idx in
      Sutil.Fact.is_permutation p && Sutil.Fact.lehmer_encode p = idx)

let prop_invert =
  QCheck2.Test.make ~count:200 ~name:"invert . invert = id"
    QCheck2.Gen.(int_range 0 (Sutil.Fact.factorial 6 - 1))
    (fun idx ->
      let p = Sutil.Fact.lehmer_decode ~n:6 idx in
      Sutil.Fact.invert (Sutil.Fact.invert p) = p)

let test_apply () =
  let p = [| 2; 0; 1 |] in
  Alcotest.(check (array string))
    "apply" [| "c"; "a"; "b" |]
    (Sutil.Fact.apply p [| "a"; "b"; "c" |])

(* ------------------------------------------------------------------ *)
(* Bytecodec *)

let prop_codec_roundtrip =
  QCheck2.Test.make ~count:300 ~name:"get/set roundtrip at every width"
    QCheck2.Gen.(pair (int_range 0 3) int64)
    (fun (wi, v) ->
      let width = [| 1; 2; 4; 8 |].(wi) in
      let b = Bytes.make 16 '\x55' in
      Sutil.Bytecodec.set b ~width 4 v;
      let expect = Sutil.Bytecodec.zext ~width v in
      Sutil.Bytecodec.get b ~width 4 = expect)

let test_sext () =
  Alcotest.(check int64) "i8 -1" (-1L) (Sutil.Bytecodec.sext ~width:1 0xffL);
  Alcotest.(check int64) "i8 127" 127L (Sutil.Bytecodec.sext ~width:1 0x7fL);
  Alcotest.(check int64) "i16 -2" (-2L) (Sutil.Bytecodec.sext ~width:2 0xfffeL);
  Alcotest.(check int64) "i32 -1" (-1L) (Sutil.Bytecodec.sext ~width:4 0xffffffffL);
  Alcotest.(check int64) "i32 +1" 1L (Sutil.Bytecodec.sext ~width:4 1L)

let prop_sext_idempotent =
  QCheck2.Test.make ~count:200 ~name:"sext is idempotent"
    QCheck2.Gen.(pair (int_range 0 3) int64)
    (fun (wi, v) ->
      let width = [| 1; 2; 4; 8 |].(wi) in
      let s = Sutil.Bytecodec.sext ~width v in
      Sutil.Bytecodec.sext ~width s = s)

(* ------------------------------------------------------------------ *)
(* Simrng *)

let test_simrng_deterministic () =
  let a = Sutil.Simrng.create ~seed:42L in
  let b = Sutil.Simrng.create ~seed:42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Sutil.Simrng.next_u64 a)
      (Sutil.Simrng.next_u64 b)
  done

let test_simrng_copy () =
  let a = Sutil.Simrng.create ~seed:7L in
  ignore (Sutil.Simrng.next_u64 a);
  let b = Sutil.Simrng.copy a in
  Alcotest.(check int64) "copy continues identically" (Sutil.Simrng.next_u64 a)
    (Sutil.Simrng.next_u64 b)

let prop_simrng_int_bounds =
  QCheck2.Test.make ~count:300 ~name:"int ~bound in range"
    QCheck2.Gen.(pair int64 (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Sutil.Simrng.create ~seed in
      let v = Sutil.Simrng.int rng ~bound in
      v >= 0 && v < bound)

let prop_shuffle_permutes =
  QCheck2.Test.make ~count:200 ~name:"shuffle yields a permutation"
    QCheck2.Gen.(pair int64 (int_range 1 40))
    (fun (seed, n) ->
      let rng = Sutil.Simrng.create ~seed in
      let a = Array.init n Fun.id in
      Sutil.Simrng.shuffle rng a;
      Sutil.Fact.is_permutation a)

let test_simrng_distribution () =
  (* a crude uniformity check: all 8 buckets hit over 8000 draws *)
  let rng = Sutil.Simrng.create ~seed:1L in
  let buckets = Array.make 8 0 in
  for _ = 1 to 8000 do
    let v = Sutil.Simrng.int rng ~bound:8 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iteri
    (fun i c -> check_bool (Printf.sprintf "bucket %d populated" i) true (c > 800))
    buckets

(* Streams pinned from the boxed-field implementation: the state
   representation may change, the outputs may not. *)
let test_simrng_golden () =
  let draws seed =
    let r = Sutil.Simrng.create ~seed in
    List.init 4 (fun _ -> Sutil.Simrng.next_u64 r)
  in
  Alcotest.(check (list int64)) "next_u64 seed 0"
    [ -7355399402456485196L; -4652746763540216534L; 1900383378846508768L;
      7684712102626143532L ]
    (draws 0L);
  Alcotest.(check (list int64)) "next_u64 seed 42"
    [ 1546998764402558742L; 6990951692964543102L; -5902157311460992607L;
      -1389169964527427423L ]
    (draws 42L);
  Alcotest.(check (list int64)) "next_u64 seed -1"
    [ -8118546653352383224L; -4290065566684577747L; -9088772293754075490L;
      -4655159067405239249L ]
    (draws (-1L));
  let r = Sutil.Simrng.create ~seed:42L in
  let b = Buffer.create 20_000 in
  for _ = 1 to 1000 do
    Buffer.add_string b (Int64.to_string (Sutil.Simrng.next_u64 r));
    Buffer.add_char b ' '
  done;
  Alcotest.(check string) "1000 draws at seed 42" "8352b5fb731a33d591690578f2000f19"
    (Digest.to_hex (Digest.string (Buffer.contents b)));
  let r = Sutil.Simrng.create ~seed:7L in
  Alcotest.(check (list int)) "int draws"
    [ 0; 0; 0; 3; 2; 9; 716; 342843868; 2835384949472265504; 4; 0; 3 ]
    (List.map
       (fun bound -> Sutil.Simrng.int r ~bound)
       [ 1; 2; 3; 7; 10; 100; 1000; 1 lsl 30; max_int; 5; 5; 5 ]);
  let r = Sutil.Simrng.create ~seed:9L in
  let a = Array.init 20 Fun.id in
  Sutil.Simrng.shuffle r a;
  Alcotest.(check (array int)) "shuffle"
    [| 14; 3; 15; 12; 7; 8; 19; 9; 13; 4; 2; 1; 16; 11; 10; 18; 6; 17; 5; 0 |]
    a;
  Alcotest.(check (list bool)) "bool after shuffle"
    [ true; true; true; true; true; true; true; false ]
    (List.init 8 (fun _ -> Sutil.Simrng.bool r));
  List.iter
    (fun (root, id, want) ->
      Alcotest.(check int64)
        (Printf.sprintf "split_seed %Ld %S" root id)
        want
        (Sutil.Simrng.split_seed ~root ~id))
    [
      (1L, "campaign/1", 6903260497242669011L);
      (0L, "", -2152535657050944081L);
      (-1L, "abc", -4105532289465807989L);
      (1000L, "E16/progen/1042", -967849105310834141L);
    ]

(* ------------------------------------------------------------------ *)
(* Stats / Texttable *)

let test_stats () =
  Alcotest.(check (float 1e-9)) "mean" 2. (Sutil.Stats.mean [ 1.; 2.; 3. ]);
  Alcotest.(check (float 1e-9)) "median odd" 2. (Sutil.Stats.median [ 3.; 1.; 2. ]);
  Alcotest.(check (float 1e-9)) "median even" 2.5 (Sutil.Stats.median [ 1.; 2.; 3.; 4. ]);
  Alcotest.(check (float 1e-6)) "geomean" 2. (Sutil.Stats.geomean [ 1.; 4. ]);
  Alcotest.(check (float 1e-9)) "overhead +50%" 50.
    (Sutil.Stats.percent_overhead ~baseline:100. ~measured:150.);
  Alcotest.(check (float 1e-9)) "overhead -10%" (-10.)
    (Sutil.Stats.percent_overhead ~baseline:100. ~measured:90.)

let test_texttable () =
  let t =
    Sutil.Texttable.create
      ~columns:[ ("a", Sutil.Texttable.Left); ("b", Sutil.Texttable.Right) ]
  in
  Sutil.Texttable.add_row t [ "x"; "1" ];
  Sutil.Texttable.add_row t [ "long"; "22" ];
  let rendered = Sutil.Texttable.render t in
  check_bool "contains header" true
    (String.length rendered > 0 && String.sub rendered 0 1 = "a");
  Alcotest.check_raises "wrong arity"
    (Invalid_argument "Sutil.Texttable.add_row: 1 cells for 2 columns")
    (fun () -> Sutil.Texttable.add_row t [ "only-one" ]);
  Alcotest.(check string) "bytes" "2.0 KiB" (Sutil.Texttable.fmt_bytes 2048);
  Alcotest.(check string) "pct" "+10.3%" (Sutil.Texttable.fmt_pct 10.3)

(* Memov-shaped: a rule, then a summary row with empty cells. *)
let test_texttable_markdown () =
  let t =
    Sutil.Texttable.create
      ~columns:
        Sutil.Texttable.
          [
            ("benchmark", Left);
            ("base RSS", Right);
            ("hardened RSS", Right);
            ("P-BOX bytes", Right);
            ("overhead", Right);
          ]
  in
  Sutil.Texttable.add_row t [ "mcf"; "1.0 MiB"; "1.0 MiB"; "96 B"; "+0.0%" ];
  Sutil.Texttable.add_rule t;
  Sutil.Texttable.add_row t [ "mean"; ""; ""; ""; "+1.3%" ];
  Alcotest.(check string) "pipe table"
    "| benchmark | base RSS | hardened RSS | P-BOX bytes | overhead |\n\
     |---|---|---|---|---|\n\
     | mcf | 1.0 MiB | 1.0 MiB | 96 B | +0.0% |\n\
     | **mean** | | | | +1.3% |\n"
    (Sutil.Texttable.to_markdown t);
  let empty = Sutil.Texttable.create ~columns:[ ("a", Sutil.Texttable.Left) ] in
  Alcotest.(check string) "header only" "| a |\n|---|\n"
    (Sutil.Texttable.to_markdown empty)

(* ------------------------------------------------------------------ *)
(* Json *)

let test_json_unicode_escapes () =
  (* \uXXXX escapes decode to UTF-8 bytes, not replacement chars *)
  let parse s =
    match Sutil.Json.of_string s with
    | Ok (Sutil.Json.String v) -> v
    | Ok _ -> Alcotest.fail "expected a string"
    | Error e -> Alcotest.failf "parse failed: %s" e
  in
  Alcotest.(check string) "ascii" "A" (parse {|"A"|});
  Alcotest.(check string) "latin-1 escape" "\xc3\xa9" (parse {|"\u00e9"|});
  Alcotest.(check string) "bmp escape" "\xe2\x82\xac" (parse {|"\u20ac"|});
  Alcotest.(check string) "surrogate pair escape" "\xf0\x9f\x98\x80"
    (parse {|"\ud83d\ude00"|});
  Alcotest.(check string) "raw utf-8 passes through" "\xe2\x82\xac"
    (parse "\"\xe2\x82\xac\"");
  let fails s =
    match Sutil.Json.of_string s with Ok _ -> false | Error _ -> true
  in
  check_bool "unpaired high surrogate" true (fails {|"\ud83d"|});
  check_bool "unpaired low surrogate" true (fails {|"\ude00"|});
  check_bool "high surrogate + non-escape" true (fails {|"\ud83dxx"|})

let test_json_control_roundtrip () =
  (* our emitter writes control chars as \u00XX; they must survive *)
  let v = Sutil.Json.String "a\x01b\x1fc" in
  match Sutil.Json.of_string (Sutil.Json.to_string v) with
  | Ok v' -> check_bool "round-trips" true (v = v')
  | Error e -> Alcotest.failf "parse failed: %s" e

(* to_channel must stream exactly the bytes to_string materializes —
   the store's entry writer and every --json emitter rely on that. *)
let channel_bytes ?indent v =
  let path = Filename.temp_file "smokestack-json" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out_bin path in
  Sutil.Json.to_channel ?indent oc v;
  close_out oc;
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let gnarly_doc =
  Sutil.Json.(
    Obj
      [
        ("null", Null);
        ("bools", List [ Bool true; Bool false ]);
        ("ints", List [ Int 0; Int (-42); Int max_int ]);
        ("floats", List [ Float 0.30000000000000004; Float (-0.) ]);
        ( "strings",
          List
            [
              String "";
              String "plain";
              String "esc \" \\ \n \t \x01 \x1f";
              String "unicode \xE2\x98\x83 \xF0\x9F\x99\x82";
            ] );
        ("empty_obj", Obj []);
        ("empty_list", List []);
        ("nested", Obj [ ("deep", List [ Obj [ ("x", Int 1) ]; Null ]) ]);
      ])

let test_json_to_channel_matches_to_string () =
  List.iter
    (fun v ->
      Alcotest.(check string)
        "compact bytes identical"
        (Sutil.Json.to_string v) (channel_bytes v);
      Alcotest.(check string)
        "indented bytes identical"
        (Sutil.Json.to_string ~indent:true v)
        (channel_bytes ~indent:true v))
    [
      gnarly_doc;
      Sutil.Json.Null;
      Sutil.Json.String "solo";
      Sutil.Json.List [ Sutil.Json.Int 1 ];
    ]

let test_json_doc_to_channel_appends_newline () =
  let path = Filename.temp_file "smokestack-json" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out_bin path in
  Sutil.Json.doc_to_channel ~indent:true oc gnarly_doc;
  close_out oc;
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check string)
    "document is to_string plus newline"
    (Sutil.Json.to_string ~indent:true gnarly_doc ^ "\n")
    s;
  match Sutil.Json.of_string s with
  | Ok v -> Alcotest.(check bool) "and still parses" true (v = gnarly_doc)
  | Error e -> Alcotest.failf "parse failed: %s" e

(* A string without escapes is taken whole; one with escapes is copied
   run by run between them.  Both paths, their seams, and the error
   texts (byte offsets included) the byte-at-a-time parser gave. *)
let test_json_string_runs () =
  let parse s =
    match Sutil.Json.of_string s with
    | Ok (Sutil.Json.String v) -> v
    | Ok _ -> Alcotest.fail "expected a string"
    | Error e -> Alcotest.failf "parse of %S failed: %s" s e
  in
  Alcotest.(check string) "escape after a long plain prefix"
    "plain prefix past sixteen bytes \xc3\xa9\n\"end"
    (parse "\"plain prefix past sixteen bytes \xc3\xa9\\n\\\"end\"");
  Alcotest.(check string) "escaped quote first" "\"x" (parse {|"\"x"|});
  Alcotest.(check string) "escape last" "ab\\" (parse {|"ab\\"|});
  Alcotest.(check string) "empty" "" (parse {|""|});
  Alcotest.(check string) "raw control and UTF-8 bytes"
    "a\x01\x1f\tb\xc3\xa9\xf0\x9f\x98\x80"
    (parse "\"a\x01\x1f\tb\xc3\xa9\xf0\x9f\x98\x80\"");
  Alcotest.(check (list (pair string string))) "object keys and values"
    [ ("k", "v"); ("", "\u{e9}") ]
    (match Sutil.Json.of_string {|{"k":"v","":"\u00e9"}|} with
    | Ok (Sutil.Json.Obj fields) ->
        List.map
          (fun (k, v) -> (k, Option.get (Sutil.Json.to_str_opt v)))
          fields
    | _ -> Alcotest.fail "expected an object");
  let error s =
    match Sutil.Json.of_string s with
    | Ok _ -> Alcotest.failf "%S parsed" s
    | Error e -> e
  in
  Alcotest.(check string) "unterminated plain string"
    "unterminated string at byte 12" (error {|{"k":"abcdef|});
  Alcotest.(check string) "unterminated after an escape"
    "unterminated string at byte 6" (error {|"a\nbc|});
  Alcotest.(check string) "unterminated escape"
    "unterminated escape at byte 33"
    (error {|"plain prefix past sixteen bytes\|})

(* Random trees, printed compact and indented.  Floats stay finite or
   infinite: JSON has no NaN, so the printer writes it as null. *)
let json_gen =
  let open QCheck2.Gen in
  let str = string_size ~gen:char (int_range 0 10) in
  let float =
    oneof
      [
        float_range (-1e6) 1e6;
        map2 Float.ldexp (float_range (-1.) 1.) (int_range (-1074) 1023);
        oneofl [ 0.; -0.; 1e15; Float.max_float; Float.min_float; Float.infinity; Float.neg_infinity ];
      ]
  in
  let leaf =
    oneof
      [
        pure Sutil.Json.Null;
        map (fun b -> Sutil.Json.Bool b) bool;
        map (fun n -> Sutil.Json.Int n) int;
        map (fun f -> Sutil.Json.Float f) float;
        map (fun s -> Sutil.Json.String s) str;
      ]
  in
  sized_size (int_range 0 40)
  @@ fix (fun self n ->
         if n = 0 then leaf
         else
           frequency
             [
               (1, leaf);
               (2, map (fun l -> Sutil.Json.List l) (list_size (int_range 0 4) (self (n / 3))));
               ( 2,
                 map (fun l -> Sutil.Json.Obj l) (list_size (int_range 0 4) (pair str (self (n / 3))))
               );
             ])

let prop_json_roundtrip =
  QCheck2.Test.make ~count:1000 ~name:"printed tree parses back equal"
    ~print:(fun (v, indent) -> Sutil.Json.to_string ~indent v)
    QCheck2.Gen.(pair json_gen bool)
    (fun (v, indent) -> Sutil.Json.of_string (Sutil.Json.to_string ~indent v) = Ok v)

(* 1-4 edits of a printed document: substitute a byte, insert one, or
   cut the document short.  Positions wrap modulo the current length. *)
type edit = Subst of int * char | Insert of int * char | Truncate of int

let apply_edit s = function
  | Subst (i, c) when s <> "" ->
      let b = Bytes.of_string s in
      Bytes.set b (i mod String.length s) c;
      Bytes.to_string b
  | Subst _ -> s
  | Insert (i, c) ->
      let i = i mod (String.length s + 1) in
      String.sub s 0 i ^ String.make 1 c ^ String.sub s i (String.length s - i)
  | Truncate i -> String.sub s 0 (i mod (String.length s + 1))

let prop_json_mutated_never_raises =
  let open QCheck2.Gen in
  let byte = oneof [ char; oneofl [ '"'; '\\'; '{'; '}'; '['; ']'; ','; ':'; 'u'; 'e'; '-'; '.'; '0' ] ] in
  let edit =
    oneof
      [
        map2 (fun i c -> Subst (i, c)) nat byte;
        map2 (fun i c -> Insert (i, c)) nat byte;
        map (fun i -> Truncate i) nat;
      ]
  in
  let mutated =
    map3
      (fun v indent edits -> List.fold_left apply_edit (Sutil.Json.to_string ~indent v) edits)
      json_gen bool (list_size (int_range 1 4) edit)
  in
  QCheck2.Test.make ~count:3000 ~name:"mutated documents give Ok or Error, never raise"
    ~print:(Printf.sprintf "%S") mutated (fun s ->
      match Sutil.Json.of_string s with Ok _ | Error _ -> true)

(* Found by the round-trip property: 2^50 printed with %.17g is bare
   digits, which the parser reads as an Int. *)
let test_json_big_integral_float () =
  List.iter
    (fun f ->
      let v = Sutil.Json.Float f in
      match Sutil.Json.of_string (Sutil.Json.to_string v) with
      | Ok v' -> check_bool (Printf.sprintf "%.17g stays a Float" f) true (v = v')
      | Error e -> Alcotest.failf "parse failed: %s" e)
    [ Float.ldexp 1. 50; -.Float.ldexp 1. 50; 9007199254740993.; 1e15 +. 1.; 1e16 ]

let qt = QCheck_alcotest.to_alcotest

(* fixed seed: the JSON properties run the same cases every time *)
let qt_seeded t = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 20190216 |]) t

let () =
  Alcotest.run "sutil"
    [
      ( "align",
        [
          Alcotest.test_case "is_pow2" `Quick test_is_pow2;
          Alcotest.test_case "next_pow2" `Quick test_next_pow2;
          Alcotest.test_case "align_up cases" `Quick test_align_up_cases;
          qt prop_align_up;
          qt prop_align_down;
        ] );
      ( "fact",
        [
          Alcotest.test_case "factorial" `Quick test_factorial;
          Alcotest.test_case "lexical order" `Quick test_lehmer_lexical_order;
          Alcotest.test_case "apply" `Quick test_apply;
          qt prop_lehmer_roundtrip;
          qt prop_invert;
        ] );
      ( "bytecodec",
        [
          Alcotest.test_case "sext" `Quick test_sext;
          qt prop_codec_roundtrip;
          qt prop_sext_idempotent;
        ] );
      ( "simrng",
        [
          Alcotest.test_case "deterministic" `Quick test_simrng_deterministic;
          Alcotest.test_case "copy" `Quick test_simrng_copy;
          Alcotest.test_case "distribution" `Quick test_simrng_distribution;
          qt prop_simrng_int_bounds;
          qt prop_shuffle_permutes;
          Alcotest.test_case "golden streams" `Quick test_simrng_golden;
        ] );
      ( "stats+texttable",
        [
          Alcotest.test_case "stats" `Quick test_stats;
          Alcotest.test_case "texttable" `Quick test_texttable;
          Alcotest.test_case "texttable markdown" `Quick test_texttable_markdown;
        ] );
      ( "json",
        [
          Alcotest.test_case "unicode escapes" `Quick
            test_json_unicode_escapes;
          Alcotest.test_case "control round-trip" `Quick
            test_json_control_roundtrip;
          Alcotest.test_case "to_channel matches to_string" `Quick
            test_json_to_channel_matches_to_string;
          Alcotest.test_case "doc_to_channel appends newline" `Quick
            test_json_doc_to_channel_appends_newline;
          Alcotest.test_case "string runs and their errors" `Quick
            test_json_string_runs;
          Alcotest.test_case "integral float past 1e15" `Quick
            test_json_big_integral_float;
          qt_seeded prop_json_roundtrip;
          qt_seeded prop_json_mutated_never_raises;
        ] );
    ]
