(* Known-answer and property tests for the crypto substrate. *)

let hex s =
  String.init
    (String.length s / 2)
    (fun i -> Char.chr (int_of_string ("0x" ^ String.sub s (2 * i) 2)))

let hex_of s =
  String.concat "" (List.map (Printf.sprintf "%02x") (List.map Char.code (List.init (String.length s) (String.get s))))

(* ------------------------------------------------------------------ *)
(* AES known-answer tests *)

let test_sbox () =
  (* spot values from the FIPS-197 S-box table *)
  Alcotest.(check int) "S(0x00)" 0x63 (Crypto.Aes.sbox 0x00);
  Alcotest.(check int) "S(0x01)" 0x7c (Crypto.Aes.sbox 0x01);
  Alcotest.(check int) "S(0x53)" 0xed (Crypto.Aes.sbox 0x53);
  Alcotest.(check int) "S(0xff)" 0x16 (Crypto.Aes.sbox 0xff);
  Alcotest.(check int) "S(0x10)" 0xca (Crypto.Aes.sbox 0x10)

let test_sbox_bijective () =
  let seen = Array.make 256 false in
  for x = 0 to 255 do
    seen.(Crypto.Aes.sbox x) <- true
  done;
  Alcotest.(check bool) "S-box is a bijection" true
    (Array.for_all Fun.id seen)

let test_fips197_appendix_b () =
  let key = Crypto.Aes.expand_key (hex "2b7e151628aed2a6abf7158809cf4f3c") in
  let ct = Crypto.Aes.encrypt_block key (hex "3243f6a8885a308d313198a2e0370734") in
  Alcotest.(check string) "FIPS-197 B" "3925841d02dc09fbdc118597196a0b32" (hex_of ct)

let test_fips197_appendix_c () =
  let key = Crypto.Aes.expand_key (hex "000102030405060708090a0b0c0d0e0f") in
  let ct = Crypto.Aes.encrypt_block key (hex "00112233445566778899aabbccddeeff") in
  Alcotest.(check string) "FIPS-197 C.1" "69c4e0d86a7b0430d8cdb78070b4c55a" (hex_of ct)

let test_nist_ecb_vector () =
  (* NIST SP 800-38A F.1.1 ECB-AES128 block #1 *)
  let key = Crypto.Aes.expand_key (hex "2b7e151628aed2a6abf7158809cf4f3c") in
  let ct = Crypto.Aes.encrypt_block key (hex "6bc1bee22e409f96e93d7e117393172a") in
  Alcotest.(check string) "SP800-38A" "3ad77bb40d7a3660a89ecaf32466ef97" (hex_of ct)

let test_reduced_rounds_differ () =
  let key = Crypto.Aes.expand_key (hex "2b7e151628aed2a6abf7158809cf4f3c") in
  let block = hex "3243f6a8885a308d313198a2e0370734" in
  let outs =
    List.map (fun rounds -> Crypto.Aes.encrypt_block ~rounds key block)
      [ 1; 2; 5; 9; 10 ]
  in
  Alcotest.(check int) "all distinct" 5 (List.length (List.sort_uniq compare outs))

let test_bad_args () =
  Alcotest.check_raises "short key"
    (Invalid_argument "Crypto.Aes.expand_key: key must be 16 bytes") (fun () ->
      ignore (Crypto.Aes.expand_key "short"));
  let key = Crypto.Aes.expand_key (String.make 16 'k') in
  Alcotest.check_raises "short block"
    (Invalid_argument "Crypto.Aes.encrypt_block: block must be 16 bytes")
    (fun () -> ignore (Crypto.Aes.encrypt_block key "x"));
  Alcotest.check_raises "rounds 0"
    (Invalid_argument "Crypto.Aes.encrypt_block: rounds must be in [1, 10]")
    (fun () -> ignore (Crypto.Aes.encrypt_block ~rounds:0 key (String.make 16 'b')))

(* Goldens recorded from the byte-wise FIPS-197 implementation this
   library used before its table-driven kernel: the Appendix B block
   under every round count, and digests of two seeded CTR streams that
   cross many rekeys and the split-block [next_u64] half. *)
let appendix_b_by_rounds =
  [
    (1, "7445a32768e07e1f9be228c8344beee0");
    (2, "bb1912c93fafeaca2637528b04876065");
    (3, "914191c5a8a3a4450d00b19b2809998e");
    (4, "bde06dd52d43315755be0aec2d5bf307");
    (5, "352a5084944b331cff9e6a0686b6eeef");
    (6, "ccc79e8469e33d01cb2c2e9e8663bade");
    (7, "b9d7b731781cf4031f137e4d1a0d759c");
    (8, "54e9a7df616c481a3b4fd9a0a50eaf62");
    (9, "2b192055ebb63bad65416399c0b0c3fb");
    (10, "3925841d02dc09fbdc118597196a0b32");
  ]

let test_appendix_b_every_round () =
  let key = Crypto.Aes.expand_key (hex "2b7e151628aed2a6abf7158809cf4f3c") in
  let block = hex "3243f6a8885a308d313198a2e0370734" in
  List.iter
    (fun (rounds, want) ->
      Alcotest.(check string)
        (Printf.sprintf "rounds=%d" rounds)
        want
        (hex_of (Crypto.Aes.encrypt_block ~rounds key block)))
    appendix_b_by_rounds

(* ------------------------------------------------------------------ *)
(* Test-only FIPS-197 oracle: the straightforward byte-wise cipher
   (SubBytes / ShiftRows / MixColumns over a 16-byte state), kept here
   to cross-check the library's table-driven kernel. *)

module Oracle = struct
  let xtime b =
    let b = b lsl 1 in
    if b land 0x100 <> 0 then (b lxor 0x11b) land 0xff else b

  let gmul a b =
    let acc = ref 0 in
    let a = ref a and b = ref b in
    while !b <> 0 do
      if !b land 1 <> 0 then acc := !acc lxor !a;
      a := xtime !a;
      b := !b lsr 1
    done;
    !acc

  (* GF(2^8) inverse followed by the FIPS-197 affine transformation *)
  let sbox =
    let inv = Array.make 256 0 in
    for a = 1 to 255 do
      for b = 1 to 255 do
        if gmul a b = 1 then inv.(a) <- b
      done
    done;
    let rotl8 v k = ((v lsl k) lor (v lsr (8 - k))) land 0xff in
    let table =
      Array.init 256 (fun x ->
          let b = inv.(x) in
          b lxor rotl8 b 1 lxor rotl8 b 2 lxor rotl8 b 3 lxor rotl8 b 4 lxor 0x63)
    in
    fun x -> table.(x)

  let rcon = [| 0x01; 0x02; 0x04; 0x08; 0x10; 0x20; 0x40; 0x80; 0x1b; 0x36 |]

  (* 11 round keys x 16 bytes *)
  let expand_key k =
    let w = Array.make_matrix 44 4 0 in
    for i = 0 to 3 do
      for j = 0 to 3 do
        w.(i).(j) <- Char.code k.[(4 * i) + j]
      done
    done;
    for i = 4 to 43 do
      let temp = Array.copy w.(i - 1) in
      if i mod 4 = 0 then begin
        let t0 = temp.(0) in
        temp.(0) <- temp.(1);
        temp.(1) <- temp.(2);
        temp.(2) <- temp.(3);
        temp.(3) <- t0;
        for j = 0 to 3 do
          temp.(j) <- sbox temp.(j)
        done;
        temp.(0) <- temp.(0) lxor rcon.((i / 4) - 1)
      end;
      for j = 0 to 3 do
        w.(i).(j) <- w.(i - 4).(j) lxor temp.(j)
      done
    done;
    Array.init 11 (fun r -> Array.init 16 (fun b -> w.((4 * r) + (b / 4)).(b mod 4)))

  let add_round_key state rk =
    for i = 0 to 15 do
      state.(i) <- state.(i) lxor rk.(i)
    done

  let sub_bytes state =
    for i = 0 to 15 do
      state.(i) <- sbox state.(i)
    done

  (* byte [4*c + r] is row r, column c *)
  let shift_rows state =
    let s = Array.copy state in
    for c = 0 to 3 do
      for r = 0 to 3 do
        state.((4 * c) + r) <- s.((4 * ((c + r) mod 4)) + r)
      done
    done

  let mix_columns state =
    for c = 0 to 3 do
      let b = c * 4 in
      let a0 = state.(b) and a1 = state.(b + 1) and a2 = state.(b + 2) and a3 = state.(b + 3) in
      state.(b) <- gmul 2 a0 lxor gmul 3 a1 lxor a2 lxor a3;
      state.(b + 1) <- a0 lxor gmul 2 a1 lxor gmul 3 a2 lxor a3;
      state.(b + 2) <- a0 lxor a1 lxor gmul 2 a2 lxor gmul 3 a3;
      state.(b + 3) <- gmul 3 a0 lxor a1 lxor a2 lxor gmul 2 a3
    done

  let encrypt_block ~rounds key block =
    let round_keys = expand_key key in
    let state = Array.init 16 (fun i -> Char.code block.[i]) in
    add_round_key state round_keys.(0);
    for r = 1 to rounds - 1 do
      sub_bytes state;
      shift_rows state;
      mix_columns state;
      add_round_key state round_keys.(r)
    done;
    sub_bytes state;
    shift_rows state;
    add_round_key state round_keys.(rounds);
    String.init 16 (fun i -> Char.chr state.(i))
end

let test_oracle_known_answers () =
  for x = 0 to 255 do
    Alcotest.(check int) (Printf.sprintf "S(%#x)" x) (Oracle.sbox x) (Crypto.Aes.sbox x)
  done;
  List.iter
    (fun (rounds, want) ->
      Alcotest.(check string)
        (Printf.sprintf "oracle rounds=%d" rounds)
        want
        (hex_of
           (Oracle.encrypt_block ~rounds (hex "2b7e151628aed2a6abf7158809cf4f3c")
              (hex "3243f6a8885a308d313198a2e0370734"))))
    appendix_b_by_rounds

let prop_aes_matches_oracle =
  QCheck2.Test.make ~count:2000 ~name:"kernel matches byte-wise FIPS-197 oracle"
    QCheck2.Gen.(
      triple (string_size (return 16)) (string_size (return 16)) (int_range 1 10))
    (fun (key, block, rounds) ->
      String.equal
        (Crypto.Aes.encrypt_block ~rounds (Crypto.Aes.expand_key key) block)
        (Oracle.encrypt_block ~rounds key block))

let prop_aes_injective_per_key =
  QCheck2.Test.make ~count:100 ~name:"distinct blocks encrypt distinctly"
    QCheck2.Gen.(pair (string_size (return 16)) (string_size (return 16)))
    (fun (b1, b2) ->
      let key = Crypto.Aes.expand_key "0123456789abcdef" in
      b1 = b2
      || Crypto.Aes.encrypt_block key b1 <> Crypto.Aes.encrypt_block key b2)

(* ------------------------------------------------------------------ *)
(* CTR mode *)

let fixed_entropy seed =
  let e = Crypto.Entropy.create ~seed in
  Crypto.Entropy.bytes e

let test_ctr_deterministic () =
  let a = Crypto.Ctr.create ~entropy:(fixed_entropy 1L) () in
  let b = Crypto.Ctr.create ~entropy:(fixed_entropy 1L) () in
  for _ = 1 to 64 do
    Alcotest.(check int64) "same stream" (Crypto.Ctr.next_u64 a)
      (Crypto.Ctr.next_u64 b)
  done

let test_ctr_distinct_keys () =
  let a = Crypto.Ctr.create ~entropy:(fixed_entropy 1L) () in
  let b = Crypto.Ctr.create ~entropy:(fixed_entropy 2L) () in
  Alcotest.(check bool) "different keys, different streams" true
    (Crypto.Ctr.next_u64 a <> Crypto.Ctr.next_u64 b)

let test_ctr_rekey () =
  let ctr = Crypto.Ctr.create ~rekey_interval:8 ~entropy:(fixed_entropy 3L) () in
  for _ = 1 to 40 do
    ignore (Crypto.Ctr.next_block ctr)
  done;
  Alcotest.(check int) "blocks" 40 (Crypto.Ctr.blocks_generated ctr);
  Alcotest.(check int) "rekeys" 4 (Crypto.Ctr.rekeys ctr)

let test_ctr_rounds_matter () =
  let a = Crypto.Ctr.create ~rounds:1 ~entropy:(fixed_entropy 1L) () in
  let b = Crypto.Ctr.create ~rounds:10 ~entropy:(fixed_entropy 1L) () in
  Alcotest.(check bool) "1 vs 10 rounds differ" true
    (Crypto.Ctr.next_u64 a <> Crypto.Ctr.next_u64 b)

let stream_md5 ~rounds ~seed n =
  let ctr =
    Crypto.Ctr.create ~rounds ~rekey_interval:8 ~entropy:(fixed_entropy seed) ()
  in
  let b = Buffer.create (8 * n) in
  for _ = 1 to n do
    Buffer.add_int64_le b (Crypto.Ctr.next_u64 ctr)
  done;
  (Digest.to_hex (Digest.string (Buffer.contents b)), Crypto.Ctr.rekeys ctr)

let test_ctr_stream_goldens () =
  List.iter
    (fun (rounds, want) ->
      let md5, rekeys = stream_md5 ~rounds ~seed:7L 4096 in
      Alcotest.(check string) (Printf.sprintf "AES-%d stream md5" rounds) want md5;
      Alcotest.(check int) "rekeys crossed" 255 rekeys)
    [ (1, "aa7f7c8fc78a995f76d9441d961a7593"); (10, "c1089248777025670457d9f1e192fb2a") ]

let test_ctr_block_matches_u64 () =
  (* [next_block] and [next_u64] read the same keystream: one block is
     two little-endian u64s, and a block drawn between two u64 calls
     leaves the pending half untouched. *)
  let a = Crypto.Ctr.create ~entropy:(fixed_entropy 4L) () in
  let b = Crypto.Ctr.create ~entropy:(fixed_entropy 4L) () in
  let blk = Crypto.Ctr.next_block a in
  let lo = Crypto.Ctr.next_u64 b in
  Alcotest.(check int64) "low half" (String.get_int64_le blk 0) lo;
  Alcotest.(check int64) "high half" (String.get_int64_le blk 8)
    (Crypto.Ctr.next_u64 b);
  let c = Crypto.Ctr.create ~entropy:(fixed_entropy 4L) () in
  ignore (Crypto.Ctr.next_u64 c);
  ignore (Crypto.Ctr.next_block c);
  Alcotest.(check int64) "pending survives next_block" (String.get_int64_le blk 8)
    (Crypto.Ctr.next_u64 c)

let draw_stream seed n =
  let ctr = Crypto.Ctr.create ~entropy:(fixed_entropy seed) () in
  Array.init n (fun _ -> Crypto.Ctr.next_u64 ctr)

let test_ctr_domains () =
  (* Streams drawn on two domains at once equal the same streams drawn
     one after the other: the kernel's tables are immutable and all
     scratch state lives in each [Ctr.t]. *)
  let n = 10_000 in
  let d1 = Domain.spawn (fun () -> draw_stream 11L n) in
  let d2 = Domain.spawn (fun () -> draw_stream 12L n) in
  let p1 = Domain.join d1 and p2 = Domain.join d2 in
  Alcotest.(check bool) "domain 1 = sequential" true (p1 = draw_stream 11L n);
  Alcotest.(check bool) "domain 2 = sequential" true (p2 = draw_stream 12L n)

let prop_ctr_no_short_cycles =
  QCheck2.Test.make ~count:20 ~name:"no repeated u64 in 512 draws"
    QCheck2.Gen.int64
    (fun seed ->
      let ctr = Crypto.Ctr.create ~entropy:(fixed_entropy seed) () in
      let seen = Hashtbl.create 512 in
      let ok = ref true in
      for _ = 1 to 512 do
        let v = Crypto.Ctr.next_u64 ctr in
        if Hashtbl.mem seen v then ok := false;
        Hashtbl.replace seen v ()
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Entropy *)

let test_entropy_deterministic_per_seed () =
  let a = Crypto.Entropy.create ~seed:5L and b = Crypto.Entropy.create ~seed:5L in
  Alcotest.(check string) "same bytes" (Crypto.Entropy.bytes a 33)
    (Crypto.Entropy.bytes b 33);
  let c = Crypto.Entropy.create ~seed:6L
  and d = Crypto.Entropy.create ~seed:5L in
  Alcotest.(check bool) "different seed differs" true
    (Crypto.Entropy.bytes c 33 <> Crypto.Entropy.bytes d 33)

let test_entropy_draw_count () =
  let e = Crypto.Entropy.create ~seed:1L in
  ignore (Crypto.Entropy.bytes e 17);
  Alcotest.(check int) "17 bytes = 3 draws" 3 (Crypto.Entropy.draws e)

(* ------------------------------------------------------------------ *)
(* Rng schemes *)

let prop_pseudo_unstep =
  QCheck2.Test.make ~count:300 ~name:"unstep inverts step" QCheck2.Gen.int64
    (fun s ->
      let s = if Int64.equal s 0L then 1L else s in
      Int64.equal (Rng.Pseudo.unstep (Rng.Pseudo.step s)) s
      && Int64.equal (Rng.Pseudo.step (Rng.Pseudo.unstep s)) s)

let test_scheme_metadata () =
  Alcotest.(check (list string)) "Table I order"
    [ "pseudo"; "AES-1"; "AES-10"; "RDRAND" ]
    (List.map Rng.Scheme.name Rng.Scheme.all);
  Alcotest.(check bool) "pseudo state in memory" true
    (Rng.Scheme.memory_resident_state Rng.Scheme.Pseudo);
  Alcotest.(check bool) "AES state out of memory" false
    (Rng.Scheme.memory_resident_state Rng.Scheme.aes10);
  List.iter
    (fun (n, sec) ->
      match Rng.Scheme.of_name n with
      | Some s ->
          Alcotest.(check string) n sec
            (Rng.Scheme.security_to_string (Rng.Scheme.security s))
      | None -> Alcotest.failf "of_name %s" n)
    [ ("pseudo", "None"); ("AES-1", "Low"); ("AES-10", "High"); ("RDRAND", "High") ]

let test_generator_streams () =
  let e = Crypto.Entropy.create ~seed:3L in
  let g = Rng.Generator.create ~seed_state:99L Rng.Scheme.Pseudo ~entropy:e in
  (* the pseudo stream is exactly step/output over the state word *)
  let s1 = Rng.Pseudo.step 99L in
  Alcotest.(check int64) "pseudo draw 1" (Rng.Pseudo.output s1) (Rng.Generator.next_u64 g);
  Alcotest.(check int64) "pseudo state tracked" s1 (Rng.Generator.pseudo_state g);
  Rng.Generator.set_pseudo_state g 99L;
  Alcotest.(check int64) "attacker reset replays" (Rng.Pseudo.output s1)
    (Rng.Generator.next_u64 g)

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "crypto"
    [
      ( "aes",
        [
          Alcotest.test_case "sbox values" `Quick test_sbox;
          Alcotest.test_case "sbox bijective" `Quick test_sbox_bijective;
          Alcotest.test_case "FIPS-197 appendix B" `Quick test_fips197_appendix_b;
          Alcotest.test_case "FIPS-197 appendix C" `Quick test_fips197_appendix_c;
          Alcotest.test_case "SP800-38A ECB" `Quick test_nist_ecb_vector;
          Alcotest.test_case "reduced rounds differ" `Quick test_reduced_rounds_differ;
          Alcotest.test_case "argument checks" `Quick test_bad_args;
          Alcotest.test_case "appendix B at every round count" `Quick
            test_appendix_b_every_round;
          Alcotest.test_case "oracle known answers" `Quick test_oracle_known_answers;
          qt prop_aes_injective_per_key;
          qt prop_aes_matches_oracle;
        ] );
      ( "ctr",
        [
          Alcotest.test_case "deterministic" `Quick test_ctr_deterministic;
          Alcotest.test_case "distinct keys" `Quick test_ctr_distinct_keys;
          Alcotest.test_case "rekey" `Quick test_ctr_rekey;
          Alcotest.test_case "rounds matter" `Quick test_ctr_rounds_matter;
          qt prop_ctr_no_short_cycles;
          Alcotest.test_case "stream goldens" `Quick test_ctr_stream_goldens;
          Alcotest.test_case "block matches u64 halves" `Quick
            test_ctr_block_matches_u64;
          Alcotest.test_case "two domains = sequential" `Quick test_ctr_domains;
        ] );
      ( "rng",
        [
          Alcotest.test_case "scheme metadata" `Quick test_scheme_metadata;
          Alcotest.test_case "generator streams" `Quick test_generator_streams;
          qt prop_pseudo_unstep;
        ] );
      ( "entropy",
        [
          Alcotest.test_case "deterministic per seed" `Quick
            test_entropy_deterministic_per_seed;
          Alcotest.test_case "draw accounting" `Quick test_entropy_draw_count;
        ] );
    ]
