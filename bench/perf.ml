(* Entry point for the hot-path performance suite (perf_suite.ml) — what
   the CI bench-regression job runs. *)

let () = Perf_suite.run ()
