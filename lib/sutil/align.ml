let is_pow2 n = n > 0 && n land (n - 1) = 0

let check_alignment fn alignment =
  if not (is_pow2 alignment) then
    invalid_arg
      (Printf.sprintf "Sutil.Align.%s: alignment %d is not a positive power of two" fn alignment)

let next_pow2 n =
  if n <= 0 then invalid_arg "Sutil.Align.next_pow2: non-positive argument";
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let is_aligned off ~alignment =
  check_alignment "is_aligned" alignment;
  off land (alignment - 1) = 0

let align_up off ~alignment =
  check_alignment "align_up" alignment;
  (off + alignment - 1) land lnot (alignment - 1)

let align_down off ~alignment =
  check_alignment "align_down" alignment;
  off land lnot (alignment - 1)
