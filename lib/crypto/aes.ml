(* Table-driven AES-128.  Bytes are packed little-endian into 32-bit
   words, one word per state column (row r in bits 8r..8r+7), so the
   state is four immediate ints and a CTR block's two u64 halves are
   plain word concatenations.  A full round is sixteen T-table lookups:
   [te_r.(x)] is the MixColumns column contributed by S-box output
   [sbox x] sitting in row r.  All tables are built eagerly at module
   init and never mutated, so any number of domains can share them — a
   module-level [lazy] would be a concurrent Lazy.force hazard once pool
   jobs run AES on several domains. *)

(* GF(2^8) doubling with the AES reduction polynomial x^8+x^4+x^3+x+1;
   only used while building the tables. *)
let xtime b =
  let b = b lsl 1 in
  if b land 0x100 <> 0 then (b lxor 0x11b) land 0xff else b

(* The S-box is derived rather than transcribed: multiplicative inverse
   in GF(2^8) (through log/antilog tables over the generator 3)
   followed by the FIPS-197 affine transformation.  The known-answer
   tests pin it against published vectors. *)
let sbox_table =
  let exp = Array.make 256 0 and log = Array.make 256 0 in
  let x = ref 1 in
  for i = 0 to 254 do
    exp.(i) <- !x;
    log.(!x) <- i;
    x := !x lxor xtime !x
  done;
  let rotl8 v k = ((v lsl k) lor (v lsr (8 - k))) land 0xff in
  Array.init 256 (fun x ->
      let b = if x = 0 then 0 else exp.((255 - log.(x)) mod 255) in
      b lxor rotl8 b 1 lxor rotl8 b 2 lxor rotl8 b 3 lxor rotl8 b 4 lxor 0x63)

let sbox x = sbox_table.(x land 0xff)

let rotl32 w k = ((w lsl k) lor (w lsr (32 - k))) land 0xffffffff

(* Column (2s, s, s, 3s) for s = S(x), rows 0..3 from the low byte up;
   the other three tables are its byte rotations. *)
let te0 =
  Array.init 256 (fun x ->
      let s = sbox_table.(x) in
      let s2 = xtime s in
      s2 lor (s lsl 8) lor (s lsl 16) lor ((s2 lxor s) lsl 24))

let te1 = Array.map (fun w -> rotl32 w 8) te0
let te2 = Array.map (fun w -> rotl32 w 16) te0
let te3 = Array.map (fun w -> rotl32 w 24) te0

type key = int array (* 44 round-key words, 4 per round key *)

let rcon = [| 0x01; 0x02; 0x04; 0x08; 0x10; 0x20; 0x40; 0x80; 0x1b; 0x36 |]

let sub_word w =
  sbox_table.(w land 0xff)
  lor (sbox_table.((w lsr 8) land 0xff) lsl 8)
  lor (sbox_table.((w lsr 16) land 0xff) lsl 16)
  lor (sbox_table.(w lsr 24) lsl 24)

let word_of_string s off = Int32.to_int (String.get_int32_le s off) land 0xffffffff

let expand_key k =
  if String.length k <> 16 then
    invalid_arg "Crypto.Aes.expand_key: key must be 16 bytes";
  let w = Array.make 44 0 in
  for i = 0 to 3 do
    w.(i) <- word_of_string k (4 * i)
  done;
  for i = 4 to 43 do
    let prev = w.(i - 1) in
    let temp =
      if i mod 4 = 0 then
        (* SubWord(RotWord) + Rcon: RotWord moves row 0 to row 3 *)
        sub_word ((prev lsr 8) lor ((prev land 0xff) lsl 24))
        lxor rcon.((i / 4) - 1)
      else prev
    in
    w.(i) <- w.(i - 4) lxor temp
  done;
  w

let standard_rounds = 10

(* Every table index below is masked to a byte, and every round-key
   index is below [4 * (rounds + 1)] <= 44 = [Array.length rk]. *)
let[@inline] tab (t : int array) i = Array.unsafe_get t i

let check_rounds fn rounds =
  if rounds < 1 || rounds > standard_rounds then
    invalid_arg (fn ^ ": rounds must be in [1, 10]")

let encrypt_words ~rounds (rk : key) (st : int array) =
  check_rounds "Crypto.Aes.encrypt_words" rounds;
  if Array.length st <> 4 then
    invalid_arg "Crypto.Aes.encrypt_words: state must be 4 words";
  let s0 = ref (st.(0) lxor tab rk 0)
  and s1 = ref (st.(1) lxor tab rk 1)
  and s2 = ref (st.(2) lxor tab rk 2)
  and s3 = ref (st.(3) lxor tab rk 3) in
  (* SubBytes + ShiftRows + MixColumns + AddRoundKey: output column c
     takes row r from input column c + r. *)
  for r = 1 to rounds - 1 do
    let a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 and k = 4 * r in
    s0 :=
      tab te0 (a0 land 0xff)
      lxor tab te1 ((a1 lsr 8) land 0xff)
      lxor tab te2 ((a2 lsr 16) land 0xff)
      lxor tab te3 (a3 lsr 24)
      lxor tab rk k;
    s1 :=
      tab te0 (a1 land 0xff)
      lxor tab te1 ((a2 lsr 8) land 0xff)
      lxor tab te2 ((a3 lsr 16) land 0xff)
      lxor tab te3 (a0 lsr 24)
      lxor tab rk (k + 1);
    s2 :=
      tab te0 (a2 land 0xff)
      lxor tab te1 ((a3 lsr 8) land 0xff)
      lxor tab te2 ((a0 lsr 16) land 0xff)
      lxor tab te3 (a1 lsr 24)
      lxor tab rk (k + 2);
    s3 :=
      tab te0 (a3 land 0xff)
      lxor tab te1 ((a0 lsr 8) land 0xff)
      lxor tab te2 ((a1 lsr 16) land 0xff)
      lxor tab te3 (a2 lsr 24)
      lxor tab rk (k + 3)
  done;
  (* final round: SubBytes + ShiftRows + AddRoundKey, no MixColumns *)
  let a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 and k = 4 * rounds in
  let final b0 b1 b2 b3 =
    tab sbox_table (b0 land 0xff)
    lor (tab sbox_table ((b1 lsr 8) land 0xff) lsl 8)
    lor (tab sbox_table ((b2 lsr 16) land 0xff) lsl 16)
    lor (tab sbox_table (b3 lsr 24) lsl 24)
  in
  st.(0) <- final a0 a1 a2 a3 lxor tab rk k;
  st.(1) <- final a1 a2 a3 a0 lxor tab rk (k + 1);
  st.(2) <- final a2 a3 a0 a1 lxor tab rk (k + 2);
  st.(3) <- final a3 a0 a1 a2 lxor tab rk (k + 3)

let string_of_words st =
  let b = Bytes.create 16 in
  Array.iteri (fun c w -> Bytes.set_int32_le b (4 * c) (Int32.of_int w)) st;
  Bytes.unsafe_to_string b

let encrypt_block ?(rounds = standard_rounds) rk block =
  if String.length block <> 16 then
    invalid_arg "Crypto.Aes.encrypt_block: block must be 16 bytes";
  check_rounds "Crypto.Aes.encrypt_block" rounds;
  let w = word_of_string block in
  let st = [| w 0; w 4; w 8; w 12 |] in
  encrypt_words ~rounds rk st;
  string_of_words st
