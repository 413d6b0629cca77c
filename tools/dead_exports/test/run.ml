let show kept =
  Printf.printf "kept: %s\n" (String.concat ", " (List.map fst kept));
  List.iter print_endline (Dead_exports.check ~kept Sys.argv.(1))

let () =
  show [ ("Unused.kept", "kept on purpose") ];
  show [ ("Unused.kept", "kept on purpose"); ("Cpu.kick", "stale");
      ("Gone.value", "stale") ]
