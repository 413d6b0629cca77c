let kick () = 1
let one = 1
let run ?(burst = one) ?(quiet = false) () = if quiet then 0 else burst
let twice () = run ~burst:2 ()
