type t = int

let compare = Int.compare
let to_string = string_of_int
