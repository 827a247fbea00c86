(** AES-128 block cipher (FIPS-197), software implementation.

    The paper accelerates its permutation-index generator with the Intel
    AES-NI instructions; this is the software equivalent.  The number of
    rounds is configurable to reproduce the paper's {b AES-1} (one
    round, low security) and {b AES-10} (ten rounds, standard AES)
    operating points.

    The kernel is table-driven: four 256-entry T-tables fuse SubBytes,
    ShiftRows and MixColumns into sixteen lookups per round, and the
    state is four 32-bit column words (FIPS-197's column-major byte
    matrix, each column packed little-endian: row [r] in bits
    [8r..8r+7]).  Only encryption is provided — counter mode never needs
    the inverse cipher. *)

type key
(** An expanded AES-128 key schedule (11 round keys as 44 words). *)

val expand_key : string -> key
(** [expand_key k] expands a 16-byte key. Raises [Invalid_argument] if
    [String.length k <> 16]. *)

val standard_rounds : int
(** 10 — the FIPS-197 round count for AES-128. *)

val encrypt_words : rounds:int -> key -> int array -> unit
(** [encrypt_words ~rounds key st] encrypts, in place and without
    allocating, the block whose four column words are [st] (byte
    [4c + r] of the block is bits [8r..8r+7] of [st.(c)]).  [rounds]
    must be in [1, 10]: the cipher runs [rounds - 1] full rounds plus
    the final (MixColumns-free) round, mirroring how a reduced-round
    AES-NI loop behaves.  Raises [Invalid_argument] if [st] is not 4
    words. *)

val encrypt_block : ?rounds:int -> key -> string -> string
(** [encrypt_block ?rounds key block] encrypts one 16-byte block with
    {!encrypt_words}. [rounds] defaults to {!standard_rounds}.  Raises
    [Invalid_argument] on a block that is not 16 bytes. *)

val word_of_string : string -> int -> int
(** [word_of_string s off] packs bytes [off..off+3] of [s] into one
    state word, as {!encrypt_words} lays them out. *)

val string_of_words : int array -> string
(** The 16 bytes of a four-word state (the inverse of the packing
    {!encrypt_words} describes). *)

val sbox : int -> int
(** The AES S-box, exposed for the known-answer tests. *)
