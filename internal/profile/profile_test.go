package profile

import (
	"errors"
	"strings"
	"testing"

	"iotsec/internal/packet"
)

func TestProfileValidate(t *testing.T) {
	good := &Profile{
		SKU:     "wemo-plug-fw1",
		Version: 1,
		Services: []Service{
			{Proto: "tcp", Port: 80},
			{Proto: "udp", Port: 53, Initiated: true, Remote: "8.8.8.8"},
			{Proto: "udp", Port: 5683, Initiated: true, Remote: "any"},
		},
		MaxRate: 120,
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid profile rejected: %v", err)
	}
	cases := []*Profile{
		nil,
		{SKU: "  "},
		{SKU: "x", Version: -1},
		{SKU: "x", Services: []Service{{Proto: "icmp", Port: 1}}},
		{SKU: "x", Services: []Service{{Proto: "tcp", Port: 0}}},
		{SKU: "x", Services: []Service{{Proto: "tcp", Port: 80, Remote: "not-an-ip"}}},
	}
	for i, p := range cases {
		if err := p.Validate(); !errors.Is(err, ErrInvalidProfile) {
			t.Errorf("case %d: Validate() = %v, want ErrInvalidProfile", i, err)
		}
	}
}

func TestProfileMergeGeneralizesAndUnions(t *testing.T) {
	a := &Profile{SKU: "cam-fw2", Version: 1, Devices: 1, MaxRate: 50,
		Services: []Service{
			{Proto: "tcp", Port: 80},
			{Proto: "udp", Port: 123, Initiated: true, Remote: "10.0.0.5"},
		}}
	b := &Profile{SKU: "cam-fw2", Version: 1, Devices: 1, MaxRate: 80,
		Services: []Service{
			{Proto: "udp", Port: 123, Initiated: true, Remote: "10.0.0.9"},
			{Proto: "udp", Port: 5683},
		}}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if len(a.Services) != 3 {
		t.Fatalf("merged services = %v, want 3 entries", a.Services)
	}
	// Conflicting remotes for one service key generalize to "any".
	var ntp *Service
	for i := range a.Services {
		if a.Services[i].Port == 123 {
			ntp = &a.Services[i]
		}
	}
	if ntp == nil || !ntp.remoteAny() {
		t.Errorf("conflicting remotes did not generalize: %+v", a.Services)
	}
	if a.MaxRate != 80 {
		t.Errorf("MaxRate = %v, want max(50,80)", a.MaxRate)
	}
	if a.Devices != 2 {
		t.Errorf("Devices = %d, want 2", a.Devices)
	}
	// Cross-SKU merges are refused.
	if err := a.Merge(&Profile{SKU: "other"}); !errors.Is(err, ErrInvalidProfile) {
		t.Errorf("cross-SKU merge: %v, want ErrInvalidProfile", err)
	}
}

func TestProfileAllows(t *testing.T) {
	cloud := packet.MustParseIPv4("192.0.2.10")
	other := packet.MustParseIPv4("192.0.2.99")
	p := &Profile{SKU: "s", Version: 1, Services: []Service{
		{Proto: "tcp", Port: 80}, // served
		{Proto: "udp", Port: 443, Initiated: true, Remote: cloud.String()}, // pinned
		{Proto: "udp", Port: 53, Initiated: true},                          // any remote
	}}
	tests := []struct {
		proto            string
		srcPort, dstPort uint16
		dst              packet.IPv4Address
		want             bool
	}{
		{"tcp", 80, 55000, other, true}, // reply from the served port
		{"tcp", 8080, 55000, other, false},
		{"udp", 40000, 443, cloud, true},  // pinned cloud check-in
		{"udp", 40000, 443, other, false}, // same port, wrong endpoint
		{"udp", 40000, 53, other, true},   // unpinned DNS
		{"udp", 40000, 5683, other, false},
	}
	for i, tt := range tests {
		if got := p.Allows(tt.proto, tt.srcPort, tt.dstPort, tt.dst); got != tt.want {
			t.Errorf("case %d: Allows(%s,%d,%d,%s) = %v, want %v",
				i, tt.proto, tt.srcPort, tt.dstPort, tt.dst, got, tt.want)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := &Profile{SKU: "therm-fw3", Version: 2, Devices: 3, MaxRate: 60,
		Services: []Service{
			{Proto: "udp", Port: 123, Initiated: true, Remote: "10.0.0.5"},
			{Proto: "tcp", Port: 80},
		}}
	enc, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	if !IsEncoded(enc) {
		t.Fatalf("IsEncoded(%q) = false", enc)
	}
	if IsEncoded(`block tcp any any -> any 80 (msg:"x"; content:"y"; sid:1;)`) {
		t.Fatal("ids-dialect rule misdetected as profile")
	}
	got, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.SKU != p.SKU || got.Version != p.Version || got.MaxRate != p.MaxRate || got.Devices != p.Devices {
		t.Fatalf("round trip lost fields: %+v vs %+v", got, p)
	}
	if len(got.Services) != 2 {
		t.Fatalf("round trip services = %+v", got.Services)
	}
	// Decoded services come back normalized (sorted by key).
	if !got.Services[0].Initiated && got.Services[0].Port != 123 {
		t.Errorf("services not normalized: %+v", got.Services)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	for _, rule := range []string{
		"",
		"profile-v1 {not json",
		EncodedPrefix + `{"sku":"","version":1}`,
		`alert udp any any -> any 53 (msg:"m"; sid:2;)`,
	} {
		if _, err := Decode(rule); err == nil {
			t.Errorf("Decode(%q) accepted", rule)
		}
	}
}

func TestValidateEncodedPinsSKU(t *testing.T) {
	enc, err := Encode(&Profile{SKU: "cam-fw1", Version: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateEncoded("cam-fw1", enc); err != nil {
		t.Fatalf("matching SKU rejected: %v", err)
	}
	err = ValidateEncoded("plug-fw9", enc)
	if err == nil || !strings.Contains(err.Error(), "published under") {
		t.Fatalf("cross-SKU publish accepted: %v", err)
	}
}
