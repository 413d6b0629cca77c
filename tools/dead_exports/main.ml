(* Fails when lib/'s interfaces export a [val] or an optional argument
   that no caller uses.  Run from the repository root after
   `dune build @check`:

     dune exec tools/dead_exports/main.exe

   A [val] is used when an identifier in another compilation unit
   resolves to it; an optional argument when some call passes it.  A
   module handed over whole (functor argument, include, first-class
   module) counts every value it exports as used.  [kept] lists the items
   kept on purpose, with their reasons; an entry that gains a caller
   fails the check too. *)

let kept =
  [ ("Calibration.syscall_us", "documents the paper's 5.1.1 syscall cost");
    ("Calibration.click_base_us", "documents the paper's 5.1.1 Click cost");
    ("Calibration.click_per_byte_us", "documents the paper's 5.1.1 Click cost");
    ("Iias.create ?click_burst", "batched Click input; its fate is ROADMAP item 10's");
    ("Iias.route_batch", "batched Click input; its fate is ROADMAP item 10's") ]

let () =
  match Dead_exports.check ~kept "_build/default" with
  | [] ->
      Printf.printf "every lib/ interface item has a caller (%d kept)\n"
        (List.length kept)
  | errors ->
      List.iter prerr_endline errors;
      Printf.eprintf "\n%d error(s)\n" (List.length errors);
      exit 1
