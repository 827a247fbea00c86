type t = {
  rounds : int;
  rekey_interval : int;
  entropy : int -> string;
  mutable key : Aes.key;
  mutable nonce0 : int; (* nonce bytes 0..3, little-endian word *)
  mutable nonce1 : int; (* nonce bytes 4..7 *)
  mutable counter : int; (* universal call counter *)
  mutable since_rekey : int;
  mutable total_blocks : int;
  mutable rekeys : int;
  words : int array; (* scratch: the last [next_u64] block, 4 words *)
  mutable pending : bool; (* [words.(2..3)] not yet returned *)
}

(* The stream's first key and nonce are drawn nonce first; every rekey
   draws key first.  Both orders are part of the reproducible stream. *)
let create ?(rounds = Aes.standard_rounds) ?(rekey_interval = 65536) ~entropy () =
  if rekey_interval <= 0 then
    invalid_arg "Crypto.Ctr.create: rekey_interval must be positive";
  let nonce = entropy 8 in
  let key = Aes.expand_key (entropy 16) in
  {
    rounds;
    rekey_interval;
    entropy;
    key;
    nonce0 = Aes.word_of_string nonce 0;
    nonce1 = Aes.word_of_string nonce 4;
    counter = 0;
    since_rekey = 0;
    total_blocks = 0;
    rekeys = 0;
    words = Array.make 4 0;
    pending = false;
  }

let rekey t =
  t.key <- Aes.expand_key (t.entropy 16);
  let nonce = t.entropy 8 in
  t.nonce0 <- Aes.word_of_string nonce 0;
  t.nonce1 <- Aes.word_of_string nonce 4;
  t.since_rekey <- 0;
  t.rekeys <- t.rekeys + 1

(* Encrypt the next counter block (nonce || little-endian counter) into
   [st]. *)
let fill t st =
  if t.since_rekey >= t.rekey_interval then rekey t;
  let ctr = t.counter in
  t.counter <- ctr + 1;
  t.since_rekey <- t.since_rekey + 1;
  t.total_blocks <- t.total_blocks + 1;
  st.(0) <- t.nonce0;
  st.(1) <- t.nonce1;
  st.(2) <- ctr land 0xffffffff;
  st.(3) <- (ctr lsr 32) land 0xffffffff;
  Aes.encrypt_words ~rounds:t.rounds t.key st

let next_block t =
  let st = Array.make 4 0 in
  fill t st;
  Aes.string_of_words st

let u64_of_words lo hi =
  Int64.logor (Int64.of_int lo) (Int64.shift_left (Int64.of_int hi) 32)

let next_u64 t =
  let w = t.words in
  if t.pending then begin
    t.pending <- false;
    u64_of_words w.(2) w.(3)
  end
  else begin
    fill t w;
    t.pending <- true;
    u64_of_words w.(0) w.(1)
  end

let blocks_generated t = t.total_blocks
let rekeys t = t.rekeys
