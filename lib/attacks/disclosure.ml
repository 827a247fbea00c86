let read (st : Machine.Exec.state) addr n = Machine.Memory.read_bytes st.mem addr n

let find_bytes (st : Machine.Exec.state) ~base ~len needle =
  let hay = read st base len in
  let out = ref [] in
  let nl = String.length needle in
  if nl > 0 then
    for i = 0 to String.length hay - nl do
      if String.sub hay i nl = needle then out := i :: !out
    done;
  List.rev !out

let find_u64 st ~base ~len v =
  let needle =
    String.init 8 (fun i ->
        Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff))
  in
  find_bytes st ~base ~len needle

let live_stack (st : Machine.Exec.state) = (st.sp, st.stack_top - st.sp)
