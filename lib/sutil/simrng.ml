(* The xoshiro256 state s0..s3 as four little-endian words of one
   [Bytes]: reading and writing a word in place keeps the int64 values
   unboxed, where four mutable [int64] fields would box each update. *)
type t = Bytes.t

let get t i = Bytes.get_int64_le t (8 * i)
let set t i v = Bytes.set_int64_le t (8 * i) v

let splitmix_next state =
  let z = Int64.add !state 0x9E3779B97F4A7C15L in
  state := z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create ~seed =
  let st = ref seed in
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    set t i (splitmix_next st)
  done;
  t

let copy = Bytes.copy
let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* [@inline] so that [int] gets the result unboxed: a draw allocates
   nothing. *)
let[@inline] next_u64 t =
  let s0 = get t 0 and s1 = get t 1 and s2 = get t 2 and s3 = get t 3 in
  let result = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  set t 0 (Int64.logxor s0 s3);
  set t 1 (Int64.logxor s1 s2);
  set t 2 (Int64.logxor s2 (Int64.shift_left s1 17));
  set t 3 (rotl s3 45);
  result

(* The low 62 bits of a draw: a non-negative native int. *)
let next_62 t = Int64.to_int (Int64.logand (next_u64 t) 0x3FFF_FFFF_FFFF_FFFFL)

let int t ~bound =
  if bound <= 0 then invalid_arg "Sutil.Simrng.int: non-positive bound";
  (* Rejection sampling over the low 62 bits ([max_int] is 2^62 - 1)
     to avoid modulo bias. *)
  let limit = max_int - (max_int mod bound) in
  let v = ref (next_62 t) in
  while !v >= limit do
    v := next_62 t
  done;
  !v mod bound

let bool t = Int64.logand (next_u64 t) 1L = 1L

let split_seed ~root ~id =
  (* SplitMix64 over (root, id): absorb each byte of the id as one
     golden-gamma step, so distinct ids give decorrelated streams and
     the result depends only on the pair, never on call order. *)
  let state = ref root in
  String.iter
    (fun c -> state := Int64.logxor (splitmix_next state) (Int64.of_int (Char.code c)))
    id;
  splitmix_next state

let stream ~root ~id = create ~seed:(split_seed ~root ~id)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t ~bound:(i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
