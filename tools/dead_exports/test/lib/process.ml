let kick () = 2
