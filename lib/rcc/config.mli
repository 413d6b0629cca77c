(** Parser for a compact IOS-style router configuration dialect.

    The paper drives its Abilene mirror from the real routers'
    configuration state, parsed with rcc (§4, §6.2).  This module parses
    the equivalent information from text of the form:

    {v
    hostname Seattle
    router ospf 1
      hello-interval 5
      dead-interval 10
    interface ge-0/0/0
      description to Sunnyvale
      bandwidth 10000000
      delay 8000
      ip ospf cost 800
    !
    v}

    [bandwidth] is in kb/s, [delay] in microseconds (one way).  Comments
    start with [!] or [#]. *)

type iface_cfg = {
  ifname : string;
  peer : string;          (** hostname from "description to <peer>" *)
  bandwidth_kbps : int;
  delay_us : int;
  ospf_cost : int;
}

type router_cfg = {
  hostname : string;
  ospf : bool;
  hello_interval_s : int option;
  dead_interval_s : int option;
  ifaces : iface_cfg list;
}

val parse : string -> (router_cfg, string) result
(** Parse one router's configuration. *)

val parse_many : string -> (router_cfg list, string) result
(** Parse a file with several routers separated by [hostname] lines. *)
