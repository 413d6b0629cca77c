let ipv4_header = 20
let udp_header = 8
let tcp_header = 20
let icmp_header = 8
let openvpn_overhead = ipv4_header + udp_header + 13
let openvpn_port = 1194
let ethernet_mtu = 1500
let default_udp_payload = 1430

let checksum buf =
  let len = Bytes.length buf in
  let sum = ref 0 in
  let i = ref 0 in
  while !i + 1 < len do
    sum := !sum + (Char.code (Bytes.get buf !i) lsl 8)
           + Char.code (Bytes.get buf (!i + 1));
    i := !i + 2
  done;
  if len land 1 = 1 then
    sum := !sum + (Char.code (Bytes.get buf (len - 1)) lsl 8);
  (* Fold carries back into the low 16 bits. *)
  while !sum lsr 16 <> 0 do
    sum := (!sum land 0xFFFF) + (!sum lsr 16)
  done;
  lnot !sum land 0xFFFF

let checksum_valid buf = checksum buf = 0
