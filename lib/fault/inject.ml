type armed = { plan : Plan.t; mutable fired : int }

let plan t = t.plan
let fired t = t.fired

let arm_rng_tamper armed gen behaviour trigger =
  match gen with
  | None -> ()  (* nothing draws from a generator in this run *)
  | Some gen ->
      let orig = Rng.Generator.current_scheme gen in
      Rng.Generator.set_tamper gen (fun ~scheme ~draw v ->
          if scheme = orig && Plan.fires trigger draw then begin
            armed.fired <- armed.fired + 1;
            match behaviour with
            | Plan.Stuck_at x -> Rng.Generator.Value x
            | Plan.All_ones -> Rng.Generator.Value (-1L)
            | Plan.Bias_low k ->
                Rng.Generator.Value (Int64.logand v (Int64.shift_left (-1L) k))
            | Plan.Unavailable -> Rng.Generator.Unavailable
            | Plan.Latency _ -> Rng.Generator.Value v
          end
          else Rng.Generator.Value v)

(* Latency costs time, not values: charge the spike at the intrinsic
   layer, where cycle accounting lives.  One shared counter across the
   two draw-site intrinsics keeps "the N-th draw request" well defined. *)
let arm_rng_latency armed (st : Machine.Exec.state) extra trigger =
  let requests = ref 0 in
  List.iter
    (fun name ->
      match Hashtbl.find_opt st.intrinsics name with
      | None -> ()
      | Some f ->
          Machine.Exec.register_intrinsic st name (fun st args ->
              incr requests;
              if Plan.fires trigger !requests then begin
                armed.fired <- armed.fired + 1;
                Machine.Exec.charge st extra
              end;
              f st args))
    [ "ss.rand"; "ss.pad" ]

let arm_mem_flip armed (st : Machine.Exec.state) ~seg ~offset ~bit trigger =
  let name = match seg with Plan.Stack -> "stack" | Plan.Data -> "data" in
  let s = Machine.Memory.segment st.mem name in
  let len = s.size in
  let addr =
    match seg with
    | Plan.Stack -> s.base + len - 1 - (offset mod len)
    | Plan.Data -> s.base + (offset mod len)
  in
  let done_ = ref false in
  Machine.Memory.set_access_hook st.mem
    (Some
       (fun () ->
         if (not !done_) && Plan.fires trigger st.instr_count then begin
           done_ := true;
           armed.fired <- armed.fired + 1;
           Machine.Memory.flip_bit st.mem ~addr ~bit;
           Machine.Memory.set_access_hook st.mem None
         end))

let arm_intrinsic armed (st : Machine.Exec.state) ~name ~xor trigger =
  match Hashtbl.find_opt st.intrinsics name with
  | None -> ()  (* unhardened run, or a name this program never uses *)
  | Some f ->
      let calls = ref 0 in
      Machine.Exec.register_intrinsic st name (fun st args ->
          incr calls;
          if Plan.fires trigger !calls then begin
            armed.fired <- armed.fired + 1;
            if Array.length args > 0 then begin
              (* corrupt what the intrinsic observes (this is how a
                 fault reaches ss.fid_assert, whose XOR check is the
                 detection mechanism under test) *)
              args.(0) <- Int64.logxor args.(0) xor;
              f st args
            end
            else
              match f st args with
              | Some v -> Some (Int64.logxor v xor)
              | None -> None
          end
          else f st args)

let arm ?gen (plan : Plan.t) (st : Machine.Exec.state) =
  let armed = { plan; fired = 0 } in
  (match plan.site with
  | Plan.Rng (Plan.Latency extra) -> arm_rng_latency armed st extra plan.trigger
  | Plan.Rng behaviour -> arm_rng_tamper armed gen behaviour plan.trigger
  | Plan.Mem_flip { seg; offset; bit } ->
      arm_mem_flip armed st ~seg ~offset ~bit plan.trigger
  | Plan.Intrinsic { name; xor } ->
      arm_intrinsic armed st ~name ~xor plan.trigger);
  armed
