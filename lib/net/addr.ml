type t = int

let max_addr = 0xFFFFFFFF

let of_int i =
  if i < 0 || i > max_addr then invalid_arg "Addr.of_int: out of range";
  i

let to_int t = t

let of_octets a b c d =
  let octet name v =
    if v < 0 || v > 255 then invalid_arg ("Addr.of_octets: bad octet " ^ name);
    v
  in
  (octet "a" a lsl 24) lor (octet "b" b lsl 16) lor (octet "c" c lsl 8)
  lor octet "d" d

let of_string_opt s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] -> (
      match
        (int_of_string_opt a, int_of_string_opt b, int_of_string_opt c,
         int_of_string_opt d)
      with
      | Some a, Some b, Some c, Some d
        when a >= 0 && a < 256 && b >= 0 && b < 256 && c >= 0 && c < 256
             && d >= 0 && d < 256 ->
          Some (of_octets a b c d)
      | _ -> None)
  | _ -> None

let of_string s =
  match of_string_opt s with
  | Some t -> t
  | None -> invalid_arg ("Addr.of_string: " ^ s)

let to_string t =
  Printf.sprintf "%d.%d.%d.%d" ((t lsr 24) land 0xFF) ((t lsr 16) land 0xFF)
    ((t lsr 8) land 0xFF) (t land 0xFF)

let compare = Int.compare
let equal = Int.equal
let succ t = if t = max_addr then 0 else t + 1
let add t n = (t + n) land max_addr
let any = 0
let broadcast = max_addr
let pp ppf t = Format.pp_print_string ppf (to_string t)
