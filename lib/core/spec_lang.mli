(** A textual experiment-specification language (§6.2).

    The paper argues researchers should specify VINI experiments the way
    they write ns or Emulab scripts — topology, routing configuration,
    and a timeline of events — so experiments can migrate between
    simulation, emulation, and VINI.  This module parses that kind of
    description:

    {v
    experiment abilene-demo
    slice reserved 0.25 rt           # or: slice fair

    node Seattle
    node Denver
    node Washington
    link Seattle Denver bw 10g delay 14.5ms weight 1450
    link Denver Washington bw 10g delay 10ms weight 1000

    routing ospf hello 5 dead 10    # or: routing rip scale 0.1 | routing static

    embed Seattle on pop0            # physical node by name (optional)
    ingress Seattle pool 10.8.0.0/24
    egress Washington

    at 10 fail-link Seattle Denver
    at 12 set-loss Denver Washington 0.05
    at 15 set-bandwidth Denver Washington 2m
    at 20 clear-bandwidth Denver Washington
    at 25 set-cost Seattle Denver 5000
    at 34 restore-link Seattle Denver
    at 40 crash-node Denver          # chaos verbs: crash-node, restore-node,
    at 55 restore-node Denver        #   kill-process, flap-link A B SECS,
    at 60 corrupt-link Denver Washington 0.01    #   corrupt-link A B PROB
    at 70 migrate Denver pop5        # make-before-break live migration to
                                     #   a physical node, named like embed
    v}

    Internet-scale scenarios (DESIGN.md §17) add three verbs:

    {v
    topology generate backbone 200 seed 42   # or: waxman N | fat-tree K;
                                             #   options: alpha A, beta B,
                                             #   degree D, bw BW
    topology load substrate.topo.json        # a vini.topo/1 file
    workload users 1000000 seed 7 rate 0.002 bytes 50000 shape 1.5 skew 1
    fidelity hybrid tick 100ms               # or: packet | flow
    v}

    A [topology] line declares the {e physical substrate} the spec wants
    (resolve it with {!substrate_graph} and pass it as [to_spec ~phys]);
    [workload] + [fidelity] attach a background scenario to the spec,
    which [Vini.start] brings up as the fluid model.

    Bandwidths accept [k]/[m]/[g] suffixes (bits per second); delays accept
    [us]/[ms]/[s]. *)

type parsed

val parse : string -> (parsed, string) result
(** Syntax and local-consistency checking (named nodes exist, links are
    declared once, values are in range). *)

val name : parsed -> string
val vtopo : parsed -> Vini_topo.Graph.t
val slice : parsed -> Vini_phys.Slice.t

type substrate_decl =
  | Sub_generate of Vini_scenario.Generate.spec
      (** [topology generate ...]: regenerate from the seeded spec *)
  | Sub_load of string  (** [topology load PATH]: a vini.topo/1 file *)

val substrate_graph :
  parsed -> (Vini_topo.Graph.t option, string) result
(** Resolve the declared substrate: generators are re-run (byte-identical
    per seed), [load] paths are read here.  [Ok None] when the spec
    declares none — the caller picks the substrate as before.  Callers
    must pass the resolved graph as [to_spec ~phys] so the underlay and
    the elaboration agree. *)

val workload : parsed -> Vini_scenario.Workload.params option
val fidelity : parsed -> (Vini_scenario.Fluid.fidelity * Vini_sim.Time.t) option

val to_spec :
  parsed -> phys:Vini_topo.Graph.t -> (Experiment.spec, string) result
(** Resolve against a physical substrate into an {!Experiment.Auto}
    placement: [embed] lines pin virtual nodes to physical nodes by name
    (each target at most once), unembedded nodes named like a physical
    node pin to it, and everything else is placed by the capacity-aware
    solver at deploy time.  The request demands the slice's CPU
    reservation per virtual node. *)

val load :
  string -> phys:Vini_topo.Graph.t -> (Experiment.spec, string) result
(** [parse] + [to_spec]. *)

val example : string
(** A complete, runnable specification (used by tests and [vini run]). *)
