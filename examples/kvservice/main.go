// Multi-process deployment example: this program launches a complete Sift
// group as separate OS processes — three memnoded memory nodes serving
// one-sided RDMA over TCP, two siftd CPU nodes, and then acts as a client
// through the RPC protocol, including killing the coordinator process and
// watching the backup take over.
//
// It builds the daemons with `go build`, so run it from the repository
// root: go run ./examples/kvservice
package main

import (
	"fmt"
	"log"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"github.com/repro/sift/internal/rpc"
)

// freePort asks the kernel for an unused TCP port.
func freePort() string {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

func main() {
	tmp, err := os.MkdirTemp("", "sift-kvservice-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(tmp)

	// Build the daemons.
	memnoded := filepath.Join(tmp, "memnoded")
	siftd := filepath.Join(tmp, "siftd")
	for _, b := range []struct{ out, pkg string }{
		{memnoded, "./cmd/memnoded"},
		{siftd, "./cmd/siftd"},
	} {
		cmd := exec.Command("go", "build", "-o", b.out, b.pkg)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			log.Fatalf("building %s: %v (run from the repository root)", b.pkg, err)
		}
	}

	sizing := []string{"-keys", "2048", "-max-value", "256", "-kv-wal-slots", "512"}

	// Start 2F+1 = 3 memory nodes.
	var memAddrs []string
	var procs []*exec.Cmd
	defer func() {
		for _, p := range procs {
			if p.Process != nil {
				p.Process.Kill()
			}
		}
	}()
	for i := 0; i < 3; i++ {
		addr := freePort()
		memAddrs = append(memAddrs, addr)
		cmd := exec.Command(memnoded, append([]string{"-addr", addr}, sizing...)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Start(); err != nil {
			log.Fatal(err)
		}
		procs = append(procs, cmd)
	}
	fmt.Printf("started 3 passive memory nodes: %s\n", strings.Join(memAddrs, ", "))
	time.Sleep(300 * time.Millisecond)

	// Start F+1 = 2 CPU nodes.
	memList := strings.Join(memAddrs, ",")
	var cpuAddrs []string
	var cpuProcs []*exec.Cmd
	for i := 1; i <= 2; i++ {
		addr := freePort()
		cpuAddrs = append(cpuAddrs, addr)
		args := append([]string{
			"-id", fmt.Sprint(i), "-listen", addr, "-mem", memList,
		}, sizing...)
		cmd := exec.Command(siftd, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Start(); err != nil {
			log.Fatal(err)
		}
		procs = append(procs, cmd)
		cpuProcs = append(cpuProcs, cmd)
	}
	fmt.Printf("started 2 CPU nodes: %s\n", strings.Join(cpuAddrs, ", "))

	// Find the coordinator and use the KV API.
	coordIdx := waitCoordinator(cpuAddrs, 15*time.Second)
	fmt.Printf("coordinator: CPU node %d (%s)\n", coordIdx+1, cpuAddrs[coordIdx])

	client, err := rpc.Dial(cpuAddrs[coordIdx])
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		payload := rpc.EncodeKV([]byte(fmt.Sprintf("key%d", i)), []byte(fmt.Sprintf("val%d", i)))
		if _, err := client.Call(rpc.MethodPut, payload); err != nil {
			log.Fatalf("put: %v", err)
		}
	}
	v, err := client.Call(rpc.MethodGet, rpc.EncodeKV([]byte("key7"), nil))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote 50 keys over RPC; get key7 -> %q\n", v)
	client.Close()

	// Kill the coordinator PROCESS; the other siftd takes over.
	fmt.Println("killing the coordinator process ...")
	cpuProcs[coordIdx].Process.Kill()

	backupIdx := 1 - coordIdx
	deadline := time.Now().Add(20 * time.Second)
	for {
		if time.Now().After(deadline) {
			log.Fatal("backup never became coordinator")
		}
		if role := status(cpuAddrs[backupIdx]); role == "coordinator" {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	client2, err := rpc.Dial(cpuAddrs[backupIdx])
	if err != nil {
		log.Fatal(err)
	}
	defer client2.Close()
	v, err = client2.Call(rpc.MethodGet, rpc.EncodeKV([]byte("key7"), nil))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("backup CPU node recovered the log and serves: get key7 -> %q\n", v)
	if _, err := client2.Call(rpc.MethodPut, rpc.EncodeKV([]byte("after"), []byte("failover"))); err != nil {
		log.Fatal(err)
	}
	fmt.Println("post-failover write committed. done.")
}

func status(addr string) string {
	c, err := rpc.Dial(addr)
	if err != nil {
		return ""
	}
	defer c.Close()
	v, err := c.Call(rpc.MethodStatus, nil)
	if err != nil {
		return ""
	}
	return string(v)
}

func waitCoordinator(addrs []string, timeout time.Duration) int {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		for i, a := range addrs {
			if status(a) == "coordinator" {
				return i
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	log.Fatal("no coordinator elected")
	return -1
}
