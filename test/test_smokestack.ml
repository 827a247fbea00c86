(* Tests for the core contribution: Algorithm 1, the P-BOX with its
   optimizations, the instrumentation pass, and the runtime. *)

let qt = QCheck_alcotest.to_alcotest

(* meta generator: 1..6 slots with realistic sizes/alignments *)
let meta_gen =
  QCheck2.Gen.(
    let slot =
      oneof
        [
          return (8, 8); return (4, 4); return (2, 2); return (1, 1);
          map (fun n -> (n, 1)) (int_range 1 128);
        ]
    in
    map Array.of_list (list_size (int_range 1 5) slot))

(* ------------------------------------------------------------------ *)
(* Permgen (Algorithm 1) *)

let test_permgen_row_count_and_first_row () =
  let metas = [| (8, 8); (4, 4); (16, 1) |] in
  let table = Smokestack.Permgen.generate metas in
  Alcotest.(check int) "3! rows" 6 (Array.length table.offsets);
  (* row 0 (unshuffled) is the identity order: 8@0, 4@8, 16@12 *)
  Alcotest.(check (array int)) "identity layout" [| 0; 8; 12 |] table.offsets.(0)

let test_permgen_alignment_padding_entropy () =
  (* (1,1) before (8,8) forces 7 bytes of padding: totals differ *)
  let table = Smokestack.Permgen.generate [| (1, 1); (8, 8) |] in
  Alcotest.(check (array int)) "1 then 8" [| 0; 8 |] table.offsets.(0);
  Alcotest.(check (array int)) "8 then 1" [| 8; 0 |] table.offsets.(1);
  Alcotest.(check int) "padded total" 16 table.totals.(0);
  Alcotest.(check int) "tight total" 9 table.totals.(1);
  Alcotest.(check int) "max_total" 16 table.max_total

let prop_permgen_rows_valid =
  QCheck2.Test.make ~count:100 ~name:"every row is aligned and non-overlapping"
    meta_gen
    (fun metas ->
      let table = Smokestack.Permgen.generate metas in
      Array.for_all (Smokestack.Permgen.layout_valid metas) table.offsets)

let prop_permgen_matches_oracle =
  QCheck2.Test.make ~count:100 ~name:"generate agrees with row_for_index"
    meta_gen
    (fun metas ->
      let table = Smokestack.Permgen.generate metas in
      let rows = Array.length table.offsets in
      let ok = ref true in
      for p = 0 to rows - 1 do
        let offsets, total = Smokestack.Permgen.row_for_index metas p in
        if offsets <> table.offsets.(p) || total <> table.totals.(p) then
          ok := false
      done;
      !ok)

let prop_permgen_shuffle_is_permutation_of_rows =
  QCheck2.Test.make ~count:50 ~name:"shuffled table has the same row multiset"
    meta_gen
    (fun metas ->
      let plain = Smokestack.Permgen.generate metas in
      let rng = Sutil.Simrng.create ~seed:5L in
      let shuffled = Smokestack.Permgen.generate ~shuffle:rng metas in
      let sort t =
        List.sort compare (Array.to_list (Array.map Array.to_list t))
      in
      sort plain.offsets = sort shuffled.offsets)

let prop_permgen_total_bounds =
  QCheck2.Test.make ~count:100 ~name:"totals between sum and sum+padding"
    meta_gen
    (fun metas ->
      let table = Smokestack.Permgen.generate metas in
      let sum = Array.fold_left (fun a (s, _) -> a + s) 0 metas in
      let slack = Array.fold_left (fun a (_, al) -> a + al - 1) 0 metas in
      Array.for_all (fun t -> t >= sum && t <= sum + slack) table.totals)

(* ------------------------------------------------------------------ *)
(* P-BOX *)

let cfg = Smokestack.Config.default

let test_pbox_pow2_materialization () =
  let pbox = Smokestack.Pbox.build cfg [ ("f", [| (8, 8); (4, 4); (1, 1) |]) ] in
  let e = pbox.entries.(0) in
  Alcotest.(check int) "3! -> 8 rows" 8 e.rows_materialized;
  Alcotest.(check int) "blob = rows * stride"
    (8 * Smokestack.Pbox.row_stride e)
    (Smokestack.Pbox.blob_bytes pbox)

let test_pbox_exact_rows_without_pow2 () =
  let cfg = { cfg with Smokestack.Config.pow2_pbox = false } in
  let pbox = Smokestack.Pbox.build cfg [ ("f", [| (8, 8); (4, 4); (1, 1) |]) ] in
  Alcotest.(check int) "6 rows" 6 pbox.entries.(0).rows_materialized

let test_pbox_sharing_by_multiset () =
  (* paper §III-E: f1(int, double) shares with f2(double, int) *)
  let pbox =
    Smokestack.Pbox.build cfg
      [ ("f1", [| (4, 4); (8, 8) |]); ("f2", [| (8, 8); (4, 4) |]) ]
  in
  Alcotest.(check int) "one table" 1 (Array.length pbox.entries);
  Alcotest.(check (list string)) "both users" [ "f1"; "f2" ]
    (List.sort compare pbox.entries.(0).users)

let test_pbox_no_sharing_when_disabled () =
  let cfg = { cfg with Smokestack.Config.share_tables = false } in
  let pbox =
    Smokestack.Pbox.build cfg
      [ ("f1", [| (4, 4); (8, 8) |]); ("f2", [| (8, 8); (4, 4) |]) ]
  in
  Alcotest.(check int) "two tables" 2 (Array.length pbox.entries)

let test_pbox_rounding_up () =
  (* paper §III-E: f2(double,double) adopts f1(double,double,int)'s table *)
  let pbox =
    Smokestack.Pbox.build cfg
      [
        ("f1", [| (8, 8); (8, 8); (4, 4) |]); ("f2", [| (8, 8); (8, 8) |]);
      ]
  in
  Alcotest.(check int) "one table" 1 (Array.length pbox.entries);
  let b2 = Option.get (Smokestack.Pbox.binding pbox "f2") in
  (match b2.mode with
  | Smokestack.Pbox.Exhaustive { dummy_slots; _ } ->
      Alcotest.(check int) "dummy slot" 1 dummy_slots
  | _ -> Alcotest.fail "expected exhaustive binding");
  (* f2 pays the bigger frame *)
  Alcotest.(check bool) "f2 frame fits both" true
    (Smokestack.Pbox.max_total pbox b2 >= 20)

let test_pbox_dynamic_for_large_frames () =
  let metas = Array.init 9 (fun _ -> (8, 8)) in
  let pbox = Smokestack.Pbox.build cfg [ ("big", metas) ] in
  Alcotest.(check int) "no tables" 0 (Array.length pbox.entries);
  Alcotest.(check int) "one dynamic" 1 (Array.length pbox.dyns);
  let b = Option.get (Smokestack.Pbox.binding pbox "big") in
  Alcotest.(check bool) "dyn frame covers slots + scratch" true
    (Smokestack.Pbox.max_total pbox b >= (9 * 8) + 36)

let prop_pbox_lookup_rows_valid =
  QCheck2.Test.make ~count:60 ~name:"every materialized row decodes validly"
    meta_gen
    (fun metas ->
      let pbox = Smokestack.Pbox.build cfg [ ("f", metas) ] in
      match Smokestack.Pbox.binding pbox "f" with
      | None -> Array.length metas = 0
      | Some b ->
          let e = Option.get (Smokestack.Pbox.entry_of pbox b) in
          let ok = ref true in
          for row = 0 to e.rows_materialized - 1 do
            let offs = Smokestack.Pbox.lookup_offsets pbox b ~row in
            if not (Smokestack.Permgen.layout_valid metas offs) then ok := false
          done;
          !ok)

(* ------------------------------------------------------------------ *)
(* Instrumentation: behaviour preservation and layout variation *)

let sample_program =
  {|
long mix(long a) {
  char buf[24];
  long acc = 0;
  int i = 0;
  short tag = 7;
  strcpy(buf, "0123456789");
  while (i < 10) {
    acc = acc * 31 + buf[i] + a + tag;
    i += 1;
  }
  return acc;
}
int main() {
  long r = 0;
  long round = 0;
  while (round < 5) {
    r ^= mix(round);
    round += 1;
  }
  print_int(r);
  return 0;
}
|}

let run_hardened ?(config = Smokestack.Config.default) ~seed prog =
  let hardened = Smokestack.Harden.harden config prog in
  let st =
    Smokestack.Harden.prepare hardened ~entropy:(Crypto.Entropy.create ~seed)
  in
  Machine.Exec.run st

let test_behaviour_preserved_all_schemes () =
  let prog = Minic.Driver.compile sample_program in
  let base_st = Machine.Exec.prepare prog in
  let _, base = Machine.Exec.run base_st in
  List.iter
    (fun scheme ->
      let config = Smokestack.Config.with_scheme scheme Smokestack.Config.default in
      let outcome, stats = run_hardened ~config ~seed:9L prog in
      (match outcome with
      | Machine.Exec.Exit 0L -> ()
      | o ->
          Alcotest.failf "%s: %s" (Rng.Scheme.name scheme)
            (Machine.Exec.outcome_to_string o));
      Alcotest.(check string)
        (Rng.Scheme.name scheme ^ " output")
        base.output stats.output)
    Rng.Scheme.all

let prop_behaviour_preserved_across_seeds =
  let prog = Minic.Driver.compile sample_program in
  let base =
    let st = Machine.Exec.prepare prog in
    (snd (Machine.Exec.run st)).output
  in
  QCheck2.Test.make ~count:40
    ~name:"hardened output equals baseline for every entropy seed"
    QCheck2.Gen.int64
    (fun seed ->
      let outcome, stats = run_hardened ~seed prog in
      outcome = Machine.Exec.Exit 0L && stats.output = base)

let test_all_opt_combos_preserve_behaviour () =
  let prog = Minic.Driver.compile sample_program in
  let base =
    let st = Machine.Exec.prepare prog in
    (snd (Machine.Exec.run st)).output
  in
  List.iter
    (fun (pow2, share, round_up, fid, vla) ->
      let config =
        {
          Smokestack.Config.default with
          pow2_pbox = pow2;
          share_tables = share;
          round_up_allocs = round_up;
          fid_checks = fid;
          vla_padding = vla;
        }
      in
      let outcome, stats = run_hardened ~config ~seed:4L prog in
      Alcotest.(check bool)
        (Printf.sprintf "combo %b %b %b %b %b" pow2 share round_up fid vla)
        true
        (outcome = Machine.Exec.Exit 0L && stats.output = base))
    [
      (false, false, false, false, false);
      (true, false, false, true, true);
      (false, true, true, true, false);
      (true, true, false, false, true);
    ]

let test_layouts_vary_across_invocations () =
  (* run the hardened sample and record the address of buf across calls
     via a leaked pointer: instead, check P-BOX draw variety through the
     public API *)
  let prog = Minic.Driver.compile sample_program in
  let hardened = Smokestack.Harden.harden Smokestack.Config.default prog in
  let b = Option.get (Smokestack.Pbox.binding hardened.pbox "mix") in
  let e = Option.get (Smokestack.Pbox.entry_of hardened.pbox b) in
  let distinct =
    List.sort_uniq compare
      (List.init e.rows_materialized (fun row ->
           Array.to_list (Smokestack.Pbox.lookup_offsets hardened.pbox b ~row)))
  in
  Alcotest.(check bool) "many distinct layouts" true (List.length distinct > 50)

let test_fid_detects_corruption () =
  (* a program that deliberately smashes its whole frame: with FID
     checks on, the epilogue must catch it *)
  let src =
    {|
void smash() {
  char buf[16];
  long x = 1;
  long i = 0;
  while (i < 200) { buf[i] = 90; i += 1; }
  x += buf[3];
}
int main() {
  char cushion[512];
  cushion[0] = 0;
  smash();
  return 0;
}
|}
  in
  let prog = Minic.Driver.compile src in
  let outcome, _ = run_hardened ~seed:2L prog in
  match outcome with
  | Machine.Exec.Detected { reason; _ } ->
      Alcotest.(check bool) "mentions identifier" true
        (String.length reason > 0)
  | o ->
      Alcotest.failf "expected FID detection, got %s"
        (Machine.Exec.outcome_to_string o)

let test_instrumented_ir_verifies_and_tags () =
  let prog = Minic.Driver.compile sample_program in
  let hardened = Smokestack.Harden.harden Smokestack.Config.default prog in
  Alcotest.(check (list string)) "verifies" []
    (List.map (Format.asprintf "%a" Ir.Verifier.pp_error)
       (Ir.Verifier.verify hardened.prog));
  Alcotest.(check (list string)) "both functions permuted" [ "main"; "mix" ]
    (List.sort compare (Smokestack.Harden.permuted_functions hardened));
  (* the input program is untouched *)
  Alcotest.(check (list string)) "original unhardened" []
    (List.filter_map
       (fun (f : Ir.Func.t) ->
         if Ir.Func.has_attr f Smokestack.Abi.smokestack_attr then Some f.name
         else None)
       prog.funcs)

let test_vla_program_hardened () =
  let src =
    {|
long sum_vla(long n) {
  long a[n];
  long i = 0;
  long s = 0;
  while (i < n) { a[i] = i; i += 1; }
  for (i = 0; i < n; i++) s += a[i];
  return s;
}
int main() { print_int(sum_vla(7)); return 0; }
|}
  in
  let prog = Minic.Driver.compile src in
  let outcome, stats = run_hardened ~seed:5L prog in
  Alcotest.(check bool) "runs" true (outcome = Machine.Exec.Exit 0L);
  Alcotest.(check string) "output" "21" stats.output

let test_pseudo_state_is_vm_resident_and_predictable () =
  (* the paper's reason to call `pseudo` unsafe: its generator state
     lives in attacker-readable memory, so the attacker can predict the
     next permutation index *)
  let prog = Minic.Driver.compile sample_program in
  let config =
    Smokestack.Config.with_scheme Rng.Scheme.Pseudo Smokestack.Config.default
  in
  let hardened = Smokestack.Harden.harden config prog in
  let st =
    Smokestack.Harden.prepare hardened ~entropy:(Crypto.Entropy.create ~seed:8L)
  in
  let addr = Machine.Exec.global_addr st Smokestack.Abi.prng_state_global in
  let state_word = Machine.Memory.load st.mem ~width:8 addr in
  (* predict: next draw = output (step state) *)
  let predicted = Rng.Pseudo.output (Rng.Pseudo.step state_word) in
  (* make one draw through the runtime *)
  let drawn = ref 0L in
  (match Hashtbl.find_opt st.intrinsics Smokestack.Abi.intr_rand with
  | Some fn -> drawn := Option.get (fn st [||])
  | None -> Alcotest.fail "ss.rand not installed");
  Alcotest.(check int64) "attacker prediction matches" predicted !drawn

let test_entropy_analysis () =
  (* distinct-size slots: every permutation is a distinct layout, so the
     whole-frame collision is exactly 1/n! *)
  let table = Smokestack.Permgen.generate [| (32, 1); (8, 8); (4, 4) |] in
  let t = Smokestack.Entropy_an.of_table table in
  Alcotest.(check int) "rows" 6 t.rows;
  Alcotest.(check int) "distinct" 6 t.distinct_layouts;
  Alcotest.(check (float 1e-9)) "1/6" (1. /. 6.) t.whole_frame_collision;
  Alcotest.(check (float 1e-9)) "expected attempts" 6. t.expected_bruteforce_attempts;
  (* two identical-shape slots still swap places (the attacker cares
     which VARIABLE sits where): 2 assignments, collision 1/2 *)
  let degenerate = Smokestack.Permgen.generate [| (8, 8); (8, 8) |] in
  let td = Smokestack.Entropy_an.of_table degenerate in
  Alcotest.(check int) "degenerate distinct" 2 td.distinct_layouts;
  Alcotest.(check (float 1e-9)) "degenerate collision" 0.5 td.whole_frame_collision;
  (* subset collision is at least the whole-frame collision and at most
     any single member's *)
  let sub = Smokestack.Entropy_an.subset_collision table ~slots:[ 0; 1 ] in
  let slot0 = (List.nth t.per_slot 0).collision_probability in
  Alcotest.(check bool) "bounds" true
    (sub >= t.whole_frame_collision -. 1e-9 && sub <= slot0 +. 1e-9)

let test_entropy_of_dynamic_binding () =
  let metas = Array.init 9 (fun i -> if i = 0 then (256, 1) else (8, 8)) in
  let pbox = Smokestack.Pbox.build cfg [ ("big", metas) ] in
  let b = Option.get (Smokestack.Pbox.binding pbox "big") in
  let t = Smokestack.Entropy_an.of_binding pbox b in
  Alcotest.(check int) "sampled" 4096 t.rows;
  Alcotest.(check bool) "rich layout space" true (t.distinct_layouts > 1000);
  Alcotest.(check bool) "buffer slot has many positions" true
    ((List.nth t.per_slot 0).distinct_offsets >= 8)

let test_vla_padding_randomizes_placement () =
  (* isolate the §III-D VLA defense: one static slot (no permutation
     freedom), FID off — any address variation must come from the
     random dummy alloca in front of the VLA *)
  let src =
    {|
long leak = 0;
void f(long n) {
  char v[n];
  leak = (long)v;
  v[0] = 1;
}
int main() { f(64); return 0; }
|}
  in
  let prog = Minic.Driver.compile src in
  let leak_addrs config seeds =
    List.sort_uniq compare
      (List.map
         (fun seed ->
           let hardened = Smokestack.Harden.harden config prog in
           let st =
             Smokestack.Harden.prepare hardened
               ~entropy:(Crypto.Entropy.create ~seed)
           in
           let outcome, _ = Machine.Exec.run st in
           Alcotest.(check bool) "runs" true (outcome = Machine.Exec.Exit 0L);
           Machine.Memory.load st.mem ~width:8
             (Machine.Exec.global_addr st "leak"))
         seeds)
  in
  let seeds = List.init 12 (fun i -> Int64.of_int (100 + i)) in
  let base = { Smokestack.Config.default with fid_checks = false } in
  let with_pad = leak_addrs { base with vla_padding = true } seeds in
  let without_pad = leak_addrs { base with vla_padding = false } seeds in
  Alcotest.(check bool) "padding varies the VLA address" true
    (List.length with_pad > 4);
  Alcotest.(check int) "no padding, fixed address" 1 (List.length without_pad)

let test_exclude_supports_gradual_migration () =
  (* §III-A: modular support — excluded functions keep their baseline
     frame and the mixed binary still behaves identically *)
  let prog = Minic.Driver.compile sample_program in
  let base =
    let st = Machine.Exec.prepare prog in
    (snd (Machine.Exec.run st)).output
  in
  let config = Smokestack.Config.with_exclude [ "mix" ] Smokestack.Config.default in
  let hardened = Smokestack.Harden.harden config prog in
  Alcotest.(check (list string)) "only main instrumented" [ "main" ]
    (Smokestack.Harden.permuted_functions hardened);
  (* the excluded function's allocas survive untouched, by name *)
  let mix = Option.get (Ir.Prog.find_func hardened.prog "mix") in
  let frame = Attacks.Layout.frame_of_func mix in
  Alcotest.(check bool) "buf still visible to binary analysis" true
    (Option.is_some (Attacks.Layout.var_offset frame "buf"));
  let st =
    Smokestack.Harden.prepare hardened ~entropy:(Crypto.Entropy.create ~seed:4L)
  in
  let outcome, stats = Machine.Exec.run st in
  Alcotest.(check bool) "mixed binary runs" true (outcome = Machine.Exec.Exit 0L);
  Alcotest.(check string) "same output" base stats.output

let test_builds_are_reproducible () =
  (* same program + same build seed -> bit-identical P-BOX and IR *)
  let prog = Minic.Driver.compile sample_program in
  let h1 = Smokestack.Harden.harden ~seed:9L Smokestack.Config.default prog in
  let h2 = Smokestack.Harden.harden ~seed:9L Smokestack.Config.default prog in
  Alcotest.(check string) "same blob" h1.pbox.blob h2.pbox.blob;
  Alcotest.(check string) "same IR"
    (Ir.Printer.prog_to_string h1.prog)
    (Ir.Printer.prog_to_string h2.prog);
  let h3 = Smokestack.Harden.harden ~seed:10L Smokestack.Config.default prog in
  Alcotest.(check bool) "different seed shuffles rows" true
    (h1.pbox.blob <> h3.pbox.blob)

let test_double_harden_rejected () =
  let prog = Minic.Driver.compile sample_program in
  let h = Smokestack.Harden.harden Smokestack.Config.default prog in
  match Smokestack.Harden.harden Smokestack.Config.default h.prog with
  | _ -> Alcotest.fail "expected rejection of double hardening"
  | exception Failure msg ->
      Alcotest.(check bool) "says why" true
        (String.length msg > 0)

let prop_pbox_round_up_mapping_sound =
  (* whenever a function adopts a bigger table, its slots map to
     distinct canonical columns with matching shapes *)
  QCheck2.Test.make ~count:60 ~name:"round-up bindings map shapes faithfully"
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 4)
           (oneofl [ (8, 8); (4, 4); (2, 2); (16, 1) ]))
        (oneofl [ (8, 8); (4, 4); (2, 2) ]))
    (fun (small, extra) ->
      let small = Array.of_list small in
      let big = Array.append small [| extra |] in
      let pbox =
        Smokestack.Pbox.build Smokestack.Config.default
          [ ("big", big); ("small", small) ]
      in
      match Smokestack.Pbox.binding pbox "small" with
      | None -> false
      | Some b -> (
          match (b.mode, Smokestack.Pbox.entry_of pbox b) with
          | Smokestack.Pbox.Exhaustive { canon_of_orig; dummy_slots; _ }, Some e
            ->
              let distinct =
                List.length
                  (List.sort_uniq compare (Array.to_list canon_of_orig))
                = Array.length canon_of_orig
              in
              let shapes_match =
                Array.for_all2
                  (fun m col -> e.canon_meta.(col) = m)
                  small canon_of_orig
              in
              (* sharing requires both tables to be the same entry *)
              let shared = List.length e.users = 2 in
              distinct && shapes_match && (dummy_slots = 1) = shared
              || (* no adoption happened: small has its own exact table *)
              (dummy_slots = 0 && distinct && shapes_match)
          | _ -> false))

let test_config_validation () =
  (match Smokestack.Config.validate Smokestack.Config.default with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "default invalid: %s" e);
  (match
     Smokestack.Config.validate
       { Smokestack.Config.default with max_exhaustive_vars = 12 }
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected rejection of huge tables");
  match
    Smokestack.Config.validate
      (Smokestack.Config.with_scheme
         (Rng.Scheme.Aes_ctr { rounds = 11 })
         Smokestack.Config.default)
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected rejection of 11 AES rounds"

(* MD5 of every workload's P-BOX blob hardened at seed 5, pinned from
   the Lehmer-decoding table generator: the enumeration and the
   serialization may change, the bytes may not. *)
let test_pbox_blob_golden () =
  let check cname cfg expected =
    List.iter2
      (fun (w : Apps.Spec.workload) (name, md5) ->
        Alcotest.(check string) (cname ^ " " ^ name) w.wname name;
        let h = Smokestack.Harden.harden ~seed:5L cfg (Lazy.force w.program) in
        Alcotest.(check string)
          (cname ^ " " ^ name ^ " blob")
          md5
          (Digest.to_hex (Digest.string h.pbox.blob)))
      Apps.Spec.all expected
  in
  check "default" Smokestack.Config.default
    [
      ("perlbench", "b03f3eb999f6f019da59db48c51367ce");
      ("bzip2", "35757cb88fb16ad224e05715e066cdc1");
      ("gcc", "0e2f7b2afd2a7e3bbf3c35c4e32ab9f5");
      ("mcf", "35757cb88fb16ad224e05715e066cdc1");
      ("gobmk", "d6c22faa7ba423d741d3cc6ccb746418");
      ("hmmer", "35757cb88fb16ad224e05715e066cdc1");
      ("sjeng", "40f3d026883c291fe3adc34edb9b76df");
      ("libquantum", "35757cb88fb16ad224e05715e066cdc1");
      ("h264ref", "f07fb891e2805369b16101ba97ff0f0d");
      ("omnetpp", "c6e06d3992a92e424cdacaf7eed4db83");
      ("astar", "a90458dde39332505082acd610207bb3");
      ("xalancbmk", "b03f3eb999f6f019da59db48c51367ce");
      ("proftpd-io", "bc75c8b16adb59ee4d6cc24db10d77d2");
      ("wireshark-io", "53d65a53339fcd2036ce7b3a0753e14b");
    ];
  check "unshared exact-rows"
    { Smokestack.Config.default with pow2_pbox = false; share_tables = false }
    [
      ("perlbench", "9acf7c0e530bbe9e41c5ffe55eb84cf9");
      ("bzip2", "296deeb4f144e48110d03ab06fd713d0");
      ("gcc", "0c1915e10b7da11aa4c43e57deeb83fd");
      ("mcf", "4cfffa538b7fec8b1864b4d44bcdeccc");
      ("gobmk", "d02b6269c2c0ab41a46daa1f01e853bc");
      ("hmmer", "4cfffa538b7fec8b1864b4d44bcdeccc");
      ("sjeng", "6b47c417dc96d5a70d0c5faacea20640");
      ("libquantum", "4cfffa538b7fec8b1864b4d44bcdeccc");
      ("h264ref", "3d1f3b2b3d68074b070446eeb9f115b0");
      ("omnetpp", "0e15992a4776d95b150476b7bb4d0300");
      ("astar", "d1193e0895ed7c098afe3f94a6e95f84");
      ("xalancbmk", "ee11245b87391e6cabe0aa9415129b02");
      ("proftpd-io", "b67beabb0c473c85597b61a966cfae40");
      ("wireshark-io", "38358a9478db3f31cdcb957b410989a2");
    ]

let () =
  Alcotest.run "smokestack"
    [
      ( "permgen",
        [
          Alcotest.test_case "row count + lexical first" `Quick
            test_permgen_row_count_and_first_row;
          Alcotest.test_case "alignment padding entropy" `Quick
            test_permgen_alignment_padding_entropy;
          qt prop_permgen_rows_valid;
          qt prop_permgen_matches_oracle;
          qt prop_permgen_shuffle_is_permutation_of_rows;
          qt prop_permgen_total_bounds;
        ] );
      ( "pbox",
        [
          Alcotest.test_case "pow2 materialization" `Quick test_pbox_pow2_materialization;
          Alcotest.test_case "exact rows without pow2" `Quick
            test_pbox_exact_rows_without_pow2;
          Alcotest.test_case "sharing by multiset" `Quick test_pbox_sharing_by_multiset;
          Alcotest.test_case "no sharing when disabled" `Quick
            test_pbox_no_sharing_when_disabled;
          Alcotest.test_case "rounding up" `Quick test_pbox_rounding_up;
          Alcotest.test_case "dynamic for large frames" `Quick
            test_pbox_dynamic_for_large_frames;
          qt prop_pbox_lookup_rows_valid;
          Alcotest.test_case "blob golden (apps)" `Quick test_pbox_blob_golden;
        ] );
      ( "instrument+runtime",
        [
          Alcotest.test_case "behaviour preserved (schemes)" `Quick
            test_behaviour_preserved_all_schemes;
          Alcotest.test_case "behaviour preserved (opt combos)" `Quick
            test_all_opt_combos_preserve_behaviour;
          Alcotest.test_case "layouts vary" `Quick test_layouts_vary_across_invocations;
          Alcotest.test_case "FID detects corruption" `Quick test_fid_detects_corruption;
          Alcotest.test_case "IR verifies, attrs set" `Quick
            test_instrumented_ir_verifies_and_tags;
          Alcotest.test_case "VLA hardened" `Quick test_vla_program_hardened;
          Alcotest.test_case "pseudo state predictable" `Quick
            test_pseudo_state_is_vm_resident_and_predictable;
          Alcotest.test_case "config validation" `Quick test_config_validation;
          Alcotest.test_case "entropy analysis" `Quick test_entropy_analysis;
          Alcotest.test_case "entropy of dynamic binding" `Quick
            test_entropy_of_dynamic_binding;
          Alcotest.test_case "VLA padding randomizes placement" `Quick
            test_vla_padding_randomizes_placement;
          Alcotest.test_case "exclude = gradual migration" `Quick
            test_exclude_supports_gradual_migration;
          Alcotest.test_case "reproducible builds" `Quick
            test_builds_are_reproducible;
          Alcotest.test_case "double harden rejected" `Quick
            test_double_harden_rejected;
          qt prop_pbox_round_up_mapping_sound;
          qt prop_behaviour_preserved_across_seeds;
        ] );
    ]
