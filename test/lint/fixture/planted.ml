let used x = x + 1
let dead x = x - 1
let f ?(passed = 0) ?(never = 0) () = passed + never
