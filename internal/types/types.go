// Package types defines the domain vocabulary shared by every layer of the
// reproduction: addresses, hashes, tokens, account-level and
// application-level asset transfers, and trades.
//
// The transfer and trade tuples mirror the paper's notation exactly:
//
//   - account-level transfer  T_i    = (sender, receiver, amount, token)   (§V-A)
//   - tagged transfer         tagT_i = (tag_sender, tag_receiver, amount, token) (§V-B1)
//   - trade                          = (buyer, seller, amountSell, tokenSell,
//     amountBuy, tokenBuy) (§IV-B)
package types

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/bits"

	"leishen/internal/uint256"
)

// Address is a 160-bit Ethereum account address.
type Address [20]byte

// ZeroAddress is the all-zero address. Token mints transfer from it and
// burns transfer to it; the paper calls it the BlackHole address.
var ZeroAddress Address

// BlackHole is the paper's name for the zero address.
var BlackHole = ZeroAddress

// AddressFromHex parses a 0x-prefixed or bare 40-hex-digit address.
func AddressFromHex(s string) (Address, error) {
	if len(s) >= 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X') {
		s = s[2:]
	}
	var a Address
	if len(s) != 40 {
		return a, fmt.Errorf("address %q: want 40 hex digits, got %d", s, len(s))
	}
	if _, err := hex.Decode(a[:], []byte(s)); err != nil {
		return a, fmt.Errorf("address %q: %w", s, err)
	}
	return a, nil
}

// MustAddressFromHex is AddressFromHex, panicking on error. For constants.
func MustAddressFromHex(s string) Address {
	a, err := AddressFromHex(s)
	if err != nil {
		panic(err)
	}
	return a
}

// DeriveAddress deterministically derives a fresh address from a creator
// address and nonce, standing in for Ethereum's RLP+Keccak CREATE rule.
// The derivation only needs to be collision-resistant within a simulation;
// the double-pass hash gives the leading bytes enough avalanche that the
// paper-style Short() rendering stays readable.
func DeriveAddress(creator Address, nonce uint64) Address {
	var nb [8]byte
	binary.BigEndian.PutUint64(nb[:], nonce)
	h := HashFromData([]byte("create"), creator[:], nb[:])
	var a Address
	// Lead with the double-hashed upper half so the Short() prefix is
	// well distributed even for sequential nonces.
	copy(a[:16], h[16:])
	copy(a[16:], h[:4])
	return a
}

// String renders the address as 0x-prefixed hex.
func (a Address) String() string { return "0x" + hex.EncodeToString(a[:]) }

// Short renders the first 16 bits of the address, the compact form the
// paper uses in its figures (e.g. "0xb017").
func (a Address) Short() string { return "0x" + hex.EncodeToString(a[:2]) }

// IsZero reports whether a is the zero (BlackHole) address.
func (a Address) IsZero() bool { return a == ZeroAddress }

// Hash is a 256-bit identifier for transactions and blocks.
type Hash [32]byte

// HashFromData deterministically hashes arbitrary byte slices into a Hash.
func HashFromData(parts ...[]byte) Hash {
	h := NewDataHasher()
	for _, p := range parts {
		h.Part(p)
	}
	return h.Sum()
}

// DataHasher is HashFromData as a stream: feeding parts one at a time
// through Part, then Sum, yields exactly HashFromData(parts...). Each
// part is length-prefixed (8 bytes big-endian) and hashed with 128-bit
// FNV-1a; the upper half of the Hash is a 128-bit FNV-1 round over the
// lower half, so all 32 bytes carry entropy. The state is two words
// held by value, so hashing allocates nothing.
type DataHasher struct{ hi, lo uint64 }

// FNV-128 parameters: the offset basis, and the prime 2^88 + 0x13b as
// its low word and the shift of its high bit.
const (
	fnv128OffsetHi = 0x6c62272e07bb0142
	fnv128OffsetLo = 0x62b821756295c58d
	fnv128PrimeLo  = 0x13b
	fnv128Shift    = 24
)

// NewDataHasher returns a hasher at the FNV offset basis.
func NewDataHasher() DataHasher {
	return DataHasher{hi: fnv128OffsetHi, lo: fnv128OffsetLo}
}

// mul multiplies the state by the FNV-128 prime, mod 2^128.
func (d *DataHasher) mul() {
	hi, lo := bits.Mul64(fnv128PrimeLo, d.lo)
	d.hi = hi + d.lo<<fnv128Shift + fnv128PrimeLo*d.hi
	d.lo = lo
}

// write folds p in FNV-1a order: xor, then multiply.
func (d *DataHasher) write(p []byte) {
	for _, c := range p {
		d.lo ^= uint64(c)
		d.mul()
	}
}

// Part hashes one length-prefixed part.
func (d *DataHasher) Part(p []byte) {
	var lb [8]byte
	binary.BigEndian.PutUint64(lb[:], uint64(len(p)))
	d.write(lb[:])
	d.write(p)
}

// Sum returns the Hash of the parts fed so far.
func (d *DataHasher) Sum() Hash {
	var out Hash
	binary.BigEndian.PutUint64(out[0:8], d.hi)
	binary.BigEndian.PutUint64(out[8:16], d.lo)
	// The upper half is FNV-1 (multiply, then xor) over the lower half.
	up := NewDataHasher()
	for _, c := range out[:16] {
		up.mul()
		up.lo ^= uint64(c)
	}
	binary.BigEndian.PutUint64(out[16:24], up.hi)
	binary.BigEndian.PutUint64(out[24:32], up.lo)
	return out
}

// String renders the hash as 0x-prefixed hex.
func (h Hash) String() string { return "0x" + hex.EncodeToString(h[:]) }

// Short renders the first 4 bytes for logs.
func (h Hash) Short() string { return "0x" + hex.EncodeToString(h[:4]) }

// IsZero reports whether h is the all-zero hash.
func (h Hash) IsZero() bool { return h == Hash{} }

// Token identifies a crypto asset. ETH is the native asset; every ERC20
// token is identified by its contract address.
type Token struct {
	// Address is the token contract address; the zero address denotes
	// native ETH.
	Address Address
	// Symbol is a human-readable ticker such as "WBTC". Symbols are for
	// reporting only; identity is the address.
	Symbol string
	// Decimals is the number of base-unit digits per human unit.
	Decimals uint8
}

// ETH is the native Ether pseudo-token.
var ETH = Token{Symbol: "ETH", Decimals: 18}

// IsETH reports whether the token is native Ether.
func (t Token) IsETH() bool { return t.Address.IsZero() }

// Units parses a human-readable amount of this token into base units,
// panicking on malformed input. For scenario constants.
func (t Token) Units(s string) uint256.Int {
	return uint256.MustFromUnits(s, uint(t.Decimals))
}

// Format renders a base-unit amount in human units with the symbol.
func (t Token) Format(amount uint256.Int) string {
	return amount.ToUnits(uint(t.Decimals)) + " " + t.Symbol
}

// Transfer is an account-level asset transfer: the tuple
// T_i = (sender, receiver, amount, token) from §V-A, plus the
// happened-before sequence number the modified client records.
type Transfer struct {
	// Seq is the global happened-before position of this transfer within
	// its transaction, unifying internal (ETH) transfers and ERC20 logs.
	Seq uint64
	// Sender is the account the asset left.
	Sender Address
	// Receiver is the account the asset arrived at.
	Receiver Address
	// Amount is the transferred quantity in base units.
	Amount uint256.Int
	// Token is the transferred asset.
	Token Token
}

// String renders the transfer for reports.
func (tr Transfer) String() string {
	return fmt.Sprintf("T%d: %s -> %s  %s", tr.Seq, tr.Sender.Short(), tr.Receiver.Short(), tr.Token.Format(tr.Amount))
}

// Tag identifies the DeFi application an account belongs to. Tags carry a
// Kind so that "tagged with application X" and "tagged with root-creator
// address" (the paper's fallback for unlabeled trees) stay distinguishable.
type Tag struct {
	// Kind classifies how the tag was assigned.
	Kind TagKind
	// Name is the application name (KindApp), the root creator address in
	// hex (KindRoot), or empty (KindNone).
	Name string
}

// TagKind classifies a tag.
type TagKind int

// Tag kinds. Start at 1 so the zero Tag is recognizably invalid.
const (
	// TagNone marks an account that could not be tagged: its creation tree
	// carries conflicting application labels.
	TagNone TagKind = iota + 1
	// TagApp marks an account tagged with a DeFi application name.
	TagApp
	// TagRoot marks an account in a label-free creation tree, tagged with
	// the tree root's address.
	TagRoot
)

// AppTag builds an application tag.
func AppTag(name string) Tag { return Tag{Kind: TagApp, Name: name} }

// RootTag builds a root-address fallback tag.
func RootTag(root Address) Tag { return Tag{Kind: TagRoot, Name: root.String()} }

// NoTag is the untaggable marker.
func NoTag() Tag { return Tag{Kind: TagNone} }

// IsApp reports whether the tag names a DeFi application.
func (g Tag) IsApp() bool { return g.Kind == TagApp }

// IsNone reports whether the account could not be tagged.
func (g Tag) IsNone() bool { return g.Kind == TagNone }

// String renders the tag.
func (g Tag) String() string {
	switch g.Kind {
	case TagApp:
		return g.Name
	case TagRoot:
		return "root:" + g.Name
	default:
		return "<untagged>"
	}
}

// AppTransfer is an application-level asset transfer appT_i after
// simplification (§V-B2): parties are tags, not addresses.
type AppTransfer struct {
	// Seq preserves happened-before order.
	Seq uint64
	// Sender / Receiver are application tags. A transfer from the mint
	// BlackHole keeps the zero-address semantics via the FromBlackHole /
	// ToBlackHole flags rather than a special tag.
	Sender, Receiver Tag
	// FromBlackHole marks a mint (tokens created from the zero address).
	FromBlackHole bool
	// ToBlackHole marks a burn (tokens destroyed to the zero address).
	ToBlackHole bool
	// Amount is the transferred quantity in base units.
	Amount uint256.Int
	// Token is the transferred asset.
	Token Token
}

// String renders the app-level transfer for reports.
func (at AppTransfer) String() string {
	from, to := at.Sender.String(), at.Receiver.String()
	if at.FromBlackHole {
		from = "BlackHole"
	}
	if at.ToBlackHole {
		to = "BlackHole"
	}
	return fmt.Sprintf("appT%d: %s -> %s  %s", at.Seq, from, to, at.Token.Format(at.Amount))
}

// TradeKind classifies the three key trade actions of paper Table III.
type TradeKind int

// Trade kinds.
const (
	// TradeSwap is an asset-for-asset exchange.
	TradeSwap TradeKind = iota + 1
	// TradeMint deposits assets to mint new (LP) tokens.
	TradeMint
	// TradeRemove burns (LP) tokens to redeem underlying assets.
	TradeRemove
)

// String names the trade kind.
func (k TradeKind) String() string {
	switch k {
	case TradeSwap:
		return "swap"
	case TradeMint:
		return "mint-liquidity"
	case TradeRemove:
		return "remove-liquidity"
	default:
		return fmt.Sprintf("TradeKind(%d)", int(k))
	}
}

// Trade is the paper's trade tuple: a buyer exchanges AmountSell of
// TokenSell for AmountBuy of TokenBuy with a seller. For mint/remove
// trades the "seller" is the application that issued or redeemed the
// liquidity tokens. SecondaryBuy captures the optional third transfer of
// Table III's three-transfer conditions (a second asset received).
type Trade struct {
	// Kind is the trade action class.
	Kind TradeKind
	// Buyer initiated the trade (gave TokenSell, received TokenBuy).
	Buyer Tag
	// Seller is the counterparty application.
	Seller Tag
	// AmountSell / TokenSell is what the buyer paid.
	AmountSell uint256.Int
	TokenSell  Token
	// AmountBuy / TokenBuy is what the buyer received.
	AmountBuy uint256.Int
	TokenBuy  Token
	// SecondaryBuy holds an optional second received asset (three-transfer
	// trade forms in Table III); nil otherwise.
	SecondaryBuy *TradeLeg
	// SecondarySell holds an optional second paid asset; nil otherwise.
	SecondarySell *TradeLeg
	// Seq is the happened-before position of the trade's first transfer.
	Seq uint64
}

// TradeLeg is one additional asset movement attached to a trade.
type TradeLeg struct {
	// Amount in base units.
	Amount uint256.Int
	// Token is the asset.
	Token Token
}

// Rate returns the price paid per unit bought, as the float ratio
// AmountSell/AmountBuy, for reporting and volatility computation.
func (t Trade) Rate() float64 { return t.AmountSell.Rat(t.AmountBuy) }

// InverseRate returns AmountBuy/AmountSell.
func (t Trade) InverseRate() float64 { return t.AmountBuy.Rat(t.AmountSell) }

// String renders the trade for reports.
func (t Trade) String() string {
	s := fmt.Sprintf("%s: %s pays %s for %s to %s",
		t.Kind, t.Buyer, t.TokenSell.Format(t.AmountSell), t.TokenBuy.Format(t.AmountBuy), t.Seller)
	if t.SecondaryBuy != nil {
		s += fmt.Sprintf(" (+%s)", t.SecondaryBuy.Token.Format(t.SecondaryBuy.Amount))
	}
	return s
}

// PairKey canonically identifies an unordered token pair for volatility
// bookkeeping, e.g. "ETH-WBTC".
func PairKey(a, b Token) string {
	x, y := a.Symbol, b.Symbol
	if x > y {
		x, y = y, x
	}
	return x + "-" + y
}

// MarshalJSON renders the address as its 0x-hex form.
func (a Address) MarshalJSON() ([]byte, error) {
	return []byte(`"` + a.String() + `"`), nil
}

// UnmarshalJSON parses a 0x-hex address string.
func (a *Address) UnmarshalJSON(data []byte) error {
	s := string(data)
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		s = s[1 : len(s)-1]
	}
	v, err := AddressFromHex(s)
	if err != nil {
		return err
	}
	*a = v
	return nil
}

// MarshalJSON renders the hash as its 0x-hex form.
func (h Hash) MarshalJSON() ([]byte, error) {
	return []byte(`"` + h.String() + `"`), nil
}

// UnmarshalJSON parses a 0x-hex hash string.
func (h *Hash) UnmarshalJSON(data []byte) error {
	s := string(data)
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		s = s[1 : len(s)-1]
	}
	v, err := HashFromHex(s)
	if err != nil {
		return err
	}
	*h = v
	return nil
}

// MarshalJSON renders the tag as its display string.
func (g Tag) MarshalJSON() ([]byte, error) {
	return []byte(`"` + g.String() + `"`), nil
}

// HashFromHex parses a 0x-prefixed or bare 64-hex-digit hash.
func HashFromHex(s string) (Hash, error) {
	if len(s) >= 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X') {
		s = s[2:]
	}
	var h Hash
	if len(s) != 64 {
		return h, fmt.Errorf("hash %q: want 64 hex digits, got %d", s, len(s))
	}
	if _, err := hex.Decode(h[:], []byte(s)); err != nil {
		return h, fmt.Errorf("hash %q: %w", s, err)
	}
	return h, nil
}
