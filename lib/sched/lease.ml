type 'a t = { mutex : Mutex.t; table : (string, 'a) Hashtbl.t }

let create () = { mutex = Mutex.create (); table = Hashtbl.create 16 }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let acquire t ~key ~build =
  locked t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some value -> value
      | None ->
          (* building under the lock is deliberate: a second acquirer of
             the same key must wait for the one build, not start its own *)
          let value = build () in
          Hashtbl.replace t.table key value;
          value)
