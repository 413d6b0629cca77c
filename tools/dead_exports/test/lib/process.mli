val kick : unit -> int
(** Nothing calls [Process.kick]; the caller's [kick] is [Cpu.kick]. *)
