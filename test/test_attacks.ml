(* Tests for the attack framework: payload crafting, static layout
   analysis (validated against the live machine), disclosure, verdicts
   and the brute-force driver. *)

(* ------------------------------------------------------------------ *)
(* Overflow crafting *)

let test_craft_basic () =
  let chunk =
    Attacks.Overflow.craft ~len:4
      [ Attacks.Overflow.bytes 6 "XY"; Attacks.Overflow.u64 10 0x01020304L ]
  in
  Alcotest.(check int) "length" 18 (String.length chunk);
  Alcotest.(check char) "filler" 'A' chunk.[0];
  Alcotest.(check string) "bytes" "XY" (String.sub chunk 6 2);
  Alcotest.(check string) "u64 LE" "\x04\x03\x02\x01\x00\x00\x00\x00" (String.sub chunk 10 8)

let test_craft_rejects_overlap () =
  (* unlabeled writes still name their byte ranges *)
  Alcotest.check_raises "overlap"
    (Invalid_argument
       "Attacks.Overflow.craft: write[7..15) overlaps write[4..12)")
    (fun () ->
      ignore
        (Attacks.Overflow.craft ~len:1
           [ Attacks.Overflow.u64 4 1L; Attacks.Overflow.u64 7 2L ]))

let test_craft_overlap_names_slots () =
  (* labeled writes: the diagnostic names the colliding slots, which is
     what a synthesized chain surfaces when a layout guess is
     geometrically impossible *)
  Alcotest.check_raises "labeled overlap"
    (Invalid_argument
       "Attacks.Overflow.craft: stamp[8..16) overlaps seen[4..12)")
    (fun () ->
      ignore
        (Attacks.Overflow.craft ~len:1
           [
             Attacks.Overflow.u64 ~label:"seen" 4 1L;
             Attacks.Overflow.u64 ~label:"stamp" 8 2L;
           ]))

let test_craft_rejects_negative () =
  Alcotest.check_raises "negative"
    (Invalid_argument
       "Attacks.Overflow.craft: negative offset in ctr[-1..7)")
    (fun () ->
      ignore
        (Attacks.Overflow.craft ~len:1
           [ Attacks.Overflow.u64 ~label:"ctr" (-1) 1L ]))

let prop_craft_writes_land =
  QCheck2.Test.make ~count:100 ~name:"every write lands at its offset"
    QCheck2.Gen.(
      list_size (int_range 1 5)
        (pair (int_range 0 200) (string_size ~gen:(char_range 'a' 'z') (int_range 1 8))))
  @@ fun writes ->
  (* space the writes out to avoid overlaps *)
  let writes =
    List.mapi
      (fun i (_, data) -> Attacks.Overflow.bytes (i * 300) data)
      writes
  in
  let chunk = Attacks.Overflow.craft ~len:1 writes in
  List.for_all
    (fun (w : Attacks.Overflow.write) ->
      String.sub chunk w.rel (String.length w.data) = w.data)
    writes

(* ------------------------------------------------------------------ *)
(* Layout vs. the live machine: the static analysis must agree with
   where the interpreter really puts things. *)

let layout_probe_src =
  {|
long leak_addr = 0;
long leak_addr2 = 0;

void inner(long depth) {
  char buf[40];
  long marker = 0;
  buf[0] = 1;
  leak_addr2 = (long)&marker;
  marker = depth;
}

int main() {
  short tag = 3;
  char name[10];
  long big = 0;
  name[0] = (char)tag;
  leak_addr = (long)&big;
  inner(1);
  return 0;
}
|}

let test_layout_matches_machine () =
  let prog = Minic.Driver.compile layout_probe_src in
  let st = Machine.Exec.prepare prog in
  let outcome, _ = Machine.Exec.run st in
  Alcotest.(check bool) "ran" true (outcome = Machine.Exec.Exit 0L);
  let big_addr =
    Int64.to_int
      (Machine.Memory.load st.mem ~width:8 (Machine.Exec.global_addr st "leak_addr"))
  in
  let marker_addr =
    Int64.to_int
      (Machine.Memory.load st.mem ~width:8 (Machine.Exec.global_addr st "leak_addr2"))
  in
  let rows = Attacks.Layout.chain prog [ "main"; "inner" ] in
  let off f v =
    List.find_map (fun (f', v', o) -> if f = f' && v = v' then Some o else None) rows
    |> Option.get
  in
  Alcotest.(check int) "main/big matches machine"
    (Machine.Exec.default_stack_top + off "main" "big")
    big_addr;
  Alcotest.(check int) "inner/marker matches machine"
    (Machine.Exec.default_stack_top + off "inner" "marker")
    marker_addr;
  (* relative distance between the frames, as the exploits compute it *)
  Alcotest.(check int) "cross-frame distance"
    (big_addr - marker_addr)
    (off "main" "big" - off "inner" "marker")

let test_layout_blind_on_hardened () =
  let prog = Minic.Driver.compile layout_probe_src in
  let hardened = Smokestack.Harden.harden Smokestack.Config.default prog in
  let f = Option.get (Ir.Prog.find_func hardened.prog "inner") in
  let frame = Attacks.Layout.frame_of_func f in
  Alcotest.(check bool) "buf invisible" true
    (Option.is_none (Attacks.Layout.var_offset frame "buf"));
  Alcotest.(check bool) "slab visible" true
    (Option.is_some (Attacks.Layout.var_offset frame "__ss_total"))

let test_global_addrs_match () =
  let prog = Minic.Driver.compile layout_probe_src in
  let st = Machine.Exec.prepare prog in
  List.iter
    (fun (name, addr) ->
      Alcotest.(check int) name (Machine.Exec.global_addr st name) addr)
    (Attacks.Layout.global_addrs prog)

(* ------------------------------------------------------------------ *)
(* Disclosure *)

let test_disclosure_find () =
  let prog = Minic.Driver.compile layout_probe_src in
  let st = Machine.Exec.prepare prog in
  let addr = Machine.Exec.global_addr st "leak_addr" in
  Machine.Memory.store st.mem ~width:8 addr 0x4142434445464748L;
  let base = addr and len = 32 in
  (match Attacks.Disclosure.find_u64 st ~base ~len 0x4142434445464748L with
  | [ off ] -> Alcotest.(check int) "found at offset" 0 off
  | l -> Alcotest.failf "expected 1 hit, got %d" (List.length l));
  match Attacks.Disclosure.find_bytes st ~base ~len "HGFE" with
  | [ off ] -> Alcotest.(check int) "substring" 0 off
  | l -> Alcotest.failf "expected 1 hit, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* Verdicts + brute force *)

let test_verdict_classification () =
  let open Attacks.Verdict in
  Alcotest.(check bool) "goal wins" true
    (classify (Machine.Exec.Exit 0L) ~goal_met:true = Success);
  Alcotest.(check bool) "goal wins over crash" true
    (classify
       (Machine.Exec.Fault { fault = Machine.Memory.Null_dereference; func = "f" })
       ~goal_met:true
    = Success);
  Alcotest.(check bool) "crash" true
    (match
       classify
         (Machine.Exec.Fault { fault = Machine.Memory.Null_dereference; func = "f" })
         ~goal_met:false
     with
    | Crashed _ -> true
    | _ -> false);
  Alcotest.(check bool) "detected" true
    (match
       classify (Machine.Exec.Detected { reason = "fid"; func = "f" }) ~goal_met:false
     with
    | Detected _ -> true
    | _ -> false);
  Alcotest.(check bool) "no effect" true
    (classify (Machine.Exec.Exit 0L) ~goal_met:false = No_effect);
  Alcotest.(check (float 0.001)) "rate" 0.25
    (success_rate [ Success; No_effect; Crashed "x"; Detected "y" ])

let test_bruteforce_driver () =
  let r =
    Attacks.Bruteforce.run ~max_attempts:10 (fun i ->
        if i = 3 then Attacks.Verdict.Success else Attacks.Verdict.No_effect)
  in
  Alcotest.(check bool) "succeeded" true r.succeeded;
  Alcotest.(check int) "4 attempts" 4 r.attempts;
  let r2 = Attacks.Bruteforce.run ~max_attempts:5 (fun _ -> Attacks.Verdict.No_effect) in
  Alcotest.(check bool) "failed" false r2.succeeded;
  Alcotest.(check int) "budget exhausted" 5 r2.attempts

let test_attempts_to_success () =
  let open Attacks.Verdict in
  let a = Attacks.Bruteforce.attempts_to_success in
  Alcotest.(check (option int)) "empty" None (a []);
  Alcotest.(check (option int)) "no success" None
    (a [ No_effect; Crashed "x"; Detected "y" ]);
  Alcotest.(check (option int)) "success at index 0" (Some 1) (a [ Success ]);
  Alcotest.(check (option int)) "success at the last index" (Some 3)
    (a [ Crashed "x"; No_effect; Success ]);
  let r =
    Attacks.Bruteforce.run ~max_attempts:10 (fun i ->
        if i = 6 then Success else No_effect)
  in
  Alcotest.(check (option int)) "agrees with run" (Some r.attempts)
    (a r.verdicts)

let test_bruteforce_seeds () =
  let seen = ref [] in
  let walk ?seed0 ~max_attempts hit =
    seen := [];
    ignore
      (Attacks.Bruteforce.run ?seed0 ~max_attempts (fun s ->
           seen := s :: !seen;
           if s = hit then Attacks.Verdict.Success else Attacks.Verdict.No_effect))
  in
  walk ~max_attempts:4 (-1);
  Alcotest.(check (list int)) "default seeds 0.." [ 0; 1; 2; 3 ] (List.rev !seen);
  walk ~seed0:5000 ~max_attempts:10 5002;
  Alcotest.(check (list int)) "seed0 + i, stopping at the success"
    [ 5000; 5001; 5002 ] (List.rev !seen);
  walk ~seed0:7 ~max_attempts:0 7;
  Alcotest.(check (list int)) "zero budget tries nothing" [] !seen

let qt = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "attacks"
    [
      ( "overflow",
        [
          Alcotest.test_case "craft basic" `Quick test_craft_basic;
          Alcotest.test_case "rejects overlap" `Quick test_craft_rejects_overlap;
          Alcotest.test_case "overlap names slots" `Quick
            test_craft_overlap_names_slots;
          Alcotest.test_case "rejects negative" `Quick test_craft_rejects_negative;
          qt prop_craft_writes_land;
        ] );
      ( "layout",
        [
          Alcotest.test_case "matches machine" `Quick test_layout_matches_machine;
          Alcotest.test_case "blind on hardened" `Quick test_layout_blind_on_hardened;
          Alcotest.test_case "global addrs" `Quick test_global_addrs_match;
        ] );
      ("disclosure", [ Alcotest.test_case "find" `Quick test_disclosure_find ]);
      ( "verdict+brute",
        [
          Alcotest.test_case "classification" `Quick test_verdict_classification;
          Alcotest.test_case "brute force driver" `Quick test_bruteforce_driver;
          Alcotest.test_case "brute force attempts to success" `Quick
            test_attempts_to_success;
          Alcotest.test_case "brute force seed walk" `Quick
            test_bruteforce_seeds;
        ] );
    ]
