open Fixture
module M = Map.Make (Key)

let () =
  let m = M.singleton 1 (Cpu.kick () + Cpu.run () + Cpu.twice ()) in
  Printf.printf "%d %d\n" (M.find 1 m) Unused.doubled
