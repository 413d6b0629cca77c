module Time = Vini_sim.Time
module Engine = Vini_sim.Engine
module Prefix = Vini_net.Prefix

type client_spec = {
  client_name : string;
  allowed : Prefix.t list;
  max_announce_per_sec : float;
  burst : int;
}

type client_state = {
  spec : client_spec;
  mutable tokens : float;
  mutable last_refill : Time.t;
  mutable rejected : int;
  mutable rate_limited : int;
}

type t = {
  engine : Engine.t;
  bgp : Bgp.t;
  vini_block : Prefix.t;
  clients : (string, client_state) Hashtbl.t;
}

let create ~engine ~asn ~rid ~addr ~vini_block =
  let config =
    Bgp.default_config ~asn ~rid ~next_hop_self:addr ~originate:[]
  in
  {
    engine;
    bgp = Bgp.create ~engine ~config ();
    vini_block;
    clients = Hashtbl.create 8;
  }

let attach_external t ~name ~send =
  Bgp.add_peer t.bgp ~name ~kind:`Ebgp ~send ()

let take_token t st =
  let now = Engine.now t.engine in
  let dt = Time.to_sec_f (Time.sub now st.last_refill) in
  st.tokens <-
    Float.min (float_of_int st.spec.burst)
      (st.tokens +. (dt *. st.spec.max_announce_per_sec));
  st.last_refill <- now;
  if st.tokens >= 1.0 then begin
    st.tokens <- st.tokens -. 1.0;
    true
  end
  else false

let attach_client t ~spec ~send =
  if Hashtbl.mem t.clients spec.client_name then
    invalid_arg "Bgp_mux.attach_client: duplicate client name";
  List.iter
    (fun p ->
      if not (Prefix.subsumes t.vini_block p) then
        invalid_arg
          "Bgp_mux.attach_client: allocation outside the VINI block")
    spec.allowed;
  let st =
    {
      spec;
      tokens = float_of_int spec.burst;
      last_refill = Engine.now t.engine;
      rejected = 0;
      rate_limited = 0;
    }
  in
  Hashtbl.replace t.clients spec.client_name st;
  let import prefix _path =
    let allowed = List.exists (fun a -> Prefix.subsumes a prefix) spec.allowed in
    if not allowed then begin
      st.rejected <- st.rejected + 1;
      false
    end
    else if not (take_token t st) then begin
      st.rate_limited <- st.rate_limited + 1;
      false
    end
    else true
  in
  Bgp.add_peer t.bgp ~name:spec.client_name ~kind:`Ibgp ~send ~import ()

let receive t ~peer msg = Bgp.receive t.bgp ~peer msg
let start t = Bgp.start t.bgp

let client_state t name =
  match Hashtbl.find_opt t.clients name with
  | Some st -> st
  | None -> invalid_arg "Bgp_mux: unknown client"

let rejected t ~client = (client_state t client).rejected
let rate_limited t ~client = (client_state t client).rate_limited
