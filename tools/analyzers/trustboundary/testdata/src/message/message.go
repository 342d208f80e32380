// Package message is a fixture stand-in for rbft/internal/message: it
// supplies the trust-boundary vocabulary — Decode (the taint source),
// Verified (the certificate), and a Preverifier (the sanitizer).
package message

// Message is a decoded wire message.
type Message struct {
	Seq     uint64
	Payload []byte
}

// Verified wraps a message that passed preverification.
type Verified struct {
	Msg  *Message
	From int
}

// Decode parses raw bytes into a Message. Its result is unverified.
func Decode(data []byte) (*Message, error) {
	return &Message{Payload: data}, nil
}

// Preverifier checks message authenticity.
type Preverifier struct{}

// PreverifyNodeFrame decodes and verifies a raw node frame: bytes in, a
// certificate out.
func (p *Preverifier) PreverifyNodeFrame(raw []byte, from int) (*Verified, error) {
	msg, err := Decode(raw)
	if err != nil {
		return nil, err
	}
	return &Verified{Msg: msg, From: from}, nil
}
