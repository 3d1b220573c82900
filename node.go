package bbcast

import (
	"bbcast/internal/transport"
	"bbcast/internal/wire"
)

// Node runs the broadcast protocol over real UDP datagrams. Construct with
// NewNode, wire the broadcast domain with SetPeers, and originate messages
// with Broadcast; accepted messages arrive on the deliver callback passed to
// NewNode.
type Node = transport.UDPNode

// DeliverFunc receives accepted application messages. It runs on the node's
// protocol goroutine, which waits for it: return quickly, and do not call
// back into the Node, which would deadlock.
type DeliverFunc = func(origin wire.NodeID, id wire.MsgID, payload []byte)

// NewNode binds a UDP socket on listen (e.g. "0.0.0.0:9000" or
// "127.0.0.1:0") and starts a protocol instance for the given node id. All
// nodes of a deployment must share the keyring construction (same n, seed
// for NewHMACKeyring, or a distributed Ed25519 PKI).
func NewNode(cfg ProtocolConfig, id NodeID, keys Keyring, listen string, deliver DeliverFunc) (*Node, error) {
	return transport.NewUDPNode(cfg, id, keys, listen, deliver)
}

// NewNodeDir is NewNode with durable state: the node keeps its origination
// sequence number, delivered-message digests and suspicions in dir
// (snapshot + CRC-framed log) and restores them on the next NewNodeDir with
// the same dir, so a device that reboots does not reuse sequence numbers or
// re-deliver pre-crash traffic. The log tolerates torn tails (recovery
// replays to the first bad record and truncates). Each node needs its own
// directory.
func NewNodeDir(cfg ProtocolConfig, id NodeID, keys Keyring, listen, dir string, deliver DeliverFunc) (*Node, error) {
	return transport.NewUDPNodeDir(cfg, id, keys, listen, dir, deliver)
}
